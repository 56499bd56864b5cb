//! `engine_fleet`: the bare `rr_sim::Sim` with no codec and no station on
//! top. Tens of thousands of actors with pending timers, where a station has
//! a few dozen: the event queue, dispatch and spawn are all there is.

use std::cell::Cell;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::rc::Rc;

use rr_sim::{Actor, Context, Event, ProcessId, Sim, SimDuration, SimRng, SimTime};

use super::{median, per, Outcome, Workload};
use crate::trace::Tracer;

const ACTORS: u64 = 20_000;
const KILL_PAIRS: u64 = 2_000;
/// Simulated seconds run; with 20 000 actors about 9 × 10⁶ events.
const HORIZON_S: u64 = 150;
/// The second fleet size, spawned alone to show how spawn cost grows.
const SMALL_FLEET: u64 = 2_000;

/// Fires a timer about once a second and answers every ping.
struct Member {
    period: SimDuration,
    /// One-way delay to the prober, as a station's bus has one.
    latency: SimDuration,
    pongs: Rc<Cell<u64>>,
}

impl Actor<u64> for Member {
    fn on_event(&mut self, ev: Event<u64>, ctx: &mut Context<'_, u64>) {
        match ev {
            Event::Start | Event::Timer { .. } => ctx.set_timer(self.period, 0),
            Event::Message { src, payload } => {
                self.pongs.set(self.pongs.get() + 1);
                ctx.send_after(src, self.latency, payload);
            }
        }
    }
}

/// Pings every member once a second.
struct Prober {
    /// Every member with its one-way delay.
    members: Rc<Vec<(ProcessId, SimDuration)>>,
    round: u64,
}

impl Actor<u64> for Prober {
    fn on_event(&mut self, ev: Event<u64>, ctx: &mut Context<'_, u64>) {
        match ev {
            Event::Start => ctx.set_timer(SimDuration::from_secs(1), 0),
            Event::Timer { .. } => {
                self.round += 1;
                for &(member, latency) in self.members.iter() {
                    ctx.send_after(member, latency, self.round);
                }
                ctx.set_timer(SimDuration::from_secs(1), 0);
            }
            Event::Message { .. } => {}
        }
    }
}

struct Input {
    /// Per member: timer period (one second with seed-drawn jitter) and
    /// one-way delay to the prober (1 to 3 ms).
    members: Vec<(SimDuration, SimDuration)>,
    /// `(member, kill after, respawn after)`.
    kills: Vec<(usize, SimDuration, SimDuration)>,
}

impl Input {
    fn new(seed: u64, actors: u64, kill_pairs: u64) -> Input {
        let mut rng = SimRng::new(seed ^ 0xF1EE7);
        let members = (0..actors)
            .map(|_| {
                (
                    SimDuration::from_secs_f64(rng.uniform(0.9, 1.1)),
                    SimDuration::from_secs_f64(rng.uniform(0.001, 0.003)),
                )
            })
            .collect();
        let kills = (0..kill_pairs)
            .map(|_| {
                let member = rng.next_below(actors) as usize;
                let kill = rng.uniform(1.0, HORIZON_S as f64 - 20.0);
                let down = rng.uniform(1.0, 10.0);
                (
                    member,
                    SimDuration::from_secs_f64(kill),
                    SimDuration::from_secs_f64(kill + down),
                )
            })
            .collect();
        Input { members, kills }
    }
}

/// Spawns `input`'s fleet into a fresh simulation.
fn spawn_fleet(
    seed: u64,
    input: &Input,
    pongs: &Rc<Cell<u64>>,
) -> (Sim<u64>, Vec<(ProcessId, SimDuration)>) {
    let mut sim = Sim::new(seed);
    let members = input
        .members
        .iter()
        .enumerate()
        .map(|(i, &(period, latency))| {
            let pongs = pongs.clone();
            let id = sim.spawn(format!("member-{i}"), move || {
                Box::new(Member {
                    period,
                    latency,
                    pongs: pongs.clone(),
                })
            });
            (id, latency)
        })
        .collect();
    (sim, members)
}

pub struct EngineFleet {
    seed: u64,
    full: Input,
    fifth: Input,
    small: Input,
}

impl EngineFleet {
    pub fn new(seed: u64, scale_div: u64) -> EngineFleet {
        let sized = |div: u64| Input::new(seed, (ACTORS / div).max(10), (KILL_PAIRS / div).max(1));
        EngineFleet {
            seed,
            full: sized(scale_div),
            fifth: sized(scale_div * 5),
            small: Input::new(seed, (SMALL_FLEET / scale_div).max(10), 0),
        }
    }

    fn run(&self, input: &Input, t: &mut Tracer) -> Outcome {
        let root = t.enter("bench.repetition");
        let pongs = Rc::new(Cell::new(0));
        let open = t.enter("sim.spawn_fleet");
        let (mut sim, members) = spawn_fleet(self.seed, input, &pongs);
        t.exit(open, members.len() as u64);
        let members = Rc::new(members);
        let for_prober = members.clone();
        sim.spawn("prober", move || {
            Box::new(Prober {
                members: for_prober.clone(),
                round: 0,
            })
        });
        let open = t.enter("sim.kill_respawn_schedule");
        for &(member, kill, respawn) in &input.kills {
            sim.kill_after(kill, members[member].0);
            sim.respawn_after(respawn, members[member].0);
        }
        t.exit(open, input.kills.len() as u64);
        let open = t.enter("sim.run_until");
        let processed = sim.run_until(SimTime::ZERO + SimDuration::from_secs(HORIZON_S));
        let run_s = t.exit(open, processed).as_secs_f64();
        let events = sim.events_processed();
        let trace_events = sim.trace().len() as u64;
        t.time("sim.drop", || drop(sim));
        t.exit(root, 0);

        // Every kill is followed by its respawn before the horizon, and the
        // engine counted exactly the events it ran.
        let lifecycle = (members.len() + 1 + 2 * input.kills.len()) as u64;
        let ok = events == processed && trace_events >= lifecycle && pongs.get() > 0;
        let mut digest = DefaultHasher::new();
        (events, trace_events, pongs.get()).hash(&mut digest);
        Outcome {
            digest: digest.finish(),
            attempted: 1,
            failed: u64::from(!ok),
            units: events as f64,
            values: vec![("events_per_s", events as f64 / run_s)],
        }
    }
}

impl Workload for EngineFleet {
    fn warm_up(&mut self) -> Outcome {
        self.run(&self.fifth, &mut Tracer::new())
    }

    fn repetition(&mut self, t: &mut Tracer) -> Outcome {
        self.run(&self.full, t)
    }

    /// A fleet a tenth the size, spawned and dropped without running.
    fn probes(&mut self, t: &mut Tracer) -> (u64, u64) {
        let root = t.enter("bench.small_fleet_probe");
        let pongs = Rc::new(Cell::new(0));
        let mut spawned = 0;
        for _ in 0..5 {
            let open = t.enter("sim.spawn_small_fleet");
            let (sim, members) = spawn_fleet(self.seed, &self.small, &pongs);
            spawned = members.len();
            t.exit(open, spawned as u64);
            drop(sim);
        }
        t.exit(root, 0);
        (1, u64::from(spawned != self.small.members.len()))
    }

    fn layer_metrics(&self, t: &Tracer) -> Vec<(&'static str, f64)> {
        let us_per = |name: &str| {
            let (s, count) = t.totals(name);
            per(s * 1e6, count)
        };
        let (run_s, events) = t.totals("sim.run_until");
        vec![
            ("sim.ns_per_event.bare", per(run_s * 1e9, events)),
            ("sim.spawn_us_per_actor.20k", us_per("sim.spawn_fleet")),
            ("sim.spawn_us_per_actor.2k", us_per("sim.spawn_small_fleet")),
            (
                "sim.kill_respawn_us",
                median(&t.durations_s("sim.kill_respawn_schedule")) * 1e6,
            ),
            (
                "sim.run_until_ms",
                median(&t.durations_s("sim.run_until")) * 1e3,
            ),
        ]
    }
}
