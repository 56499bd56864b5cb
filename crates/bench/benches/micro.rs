#![allow(clippy::disallowed_methods)]
//! Micro-benchmarks of the substrates: event-queue throughput (the timing
//! wheel against the reference `BinaryHeap` it replaced), simulator event
//! throughput, model-checker states/sec, the XML command-language codec,
//! the deterministic RNG, orbit propagation and restart-tree queries.
//!
//! Run with `-- --json PATH` to emit the `BENCH_micro.json` schema and
//! `-- --baseline BENCH_micro.json` to apply the CI regression gate (see
//! `rr_bench::harness`).

use mercury_msg::{ElementRef, Envelope, Message};
use rr_bench::harness::Runner;
use rr_sim::{Actor, Context, Event, Sim, SimDuration, SimRng, SimTime, TimerWheel};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

struct PingPong {
    peer: Option<rr_sim::ProcessId>,
}

impl Actor<u64> for PingPong {
    fn on_event(&mut self, ev: Event<u64>, ctx: &mut Context<'_, u64>) {
        match ev {
            Event::Message { src, payload } => {
                if payload > 0 {
                    ctx.send(src, payload - 1);
                }
            }
            Event::Start => {
                if let Some(peer) = self.peer {
                    ctx.send(peer, 100_000);
                }
            }
            Event::Timer { .. } => {}
        }
    }
}

/// Event payload matching the engine's per-event footprint (48 bytes), so
/// the comparison charges both queues for moving real `Scheduled<M>`-sized
/// elements rather than bare integers.
type QueuePayload = [u64; 6];

/// Steady-state churn (pop one, schedule a replacement) at a constant
/// small population, the wheel against the `BinaryHeap` the engine used
/// before it: at 50k ops each closure is fast enough that the harness
/// averages over dozens of iterations, and the CI gate compares the
/// wheel/heap **speedup ratio** rather than absolute events/sec — the two
/// sides run seconds apart in the same process, so machine-speed drift
/// cancels.
const GATE_PENDING: u64 = 50_000;

fn wheel_churn_small() -> u64 {
    let mut rng = SimRng::new(7);
    let mut wheel: TimerWheel<QueuePayload> = TimerWheel::new();
    let mut seq = 0u64;
    for _ in 0..GATE_PENDING {
        wheel.schedule(SimTime::from_nanos(rng.next_below(1 << 30)), seq, [seq; 6]);
        seq += 1;
    }
    let mut acc = 0u64;
    for _ in 0..GATE_PENDING {
        let (t, s, p) = wheel.pop().expect("queue stays full");
        acc ^= s ^ p[0];
        let next = t + SimDuration::from_nanos(1 + rng.next_below(1 << 30));
        wheel.schedule(next, seq, [seq; 6]);
        seq += 1;
    }
    acc
}

fn heap_churn_small() -> u64 {
    let mut rng = SimRng::new(7);
    let mut heap: BinaryHeap<Reverse<(u64, u64, QueuePayload)>> = BinaryHeap::new();
    let mut seq = 0u64;
    for _ in 0..GATE_PENDING {
        heap.push(Reverse((rng.next_below(1 << 30), seq, [seq; 6])));
        seq += 1;
    }
    let mut acc = 0u64;
    for _ in 0..GATE_PENDING {
        let Reverse((t, s, p)) = heap.pop().expect("queue stays full");
        acc ^= s ^ p[0];
        heap.push(Reverse((t + 1 + rng.next_below(1 << 30), seq, [seq; 6])));
        seq += 1;
    }
    acc
}

fn bench_queue(r: &mut Runner) {
    // The gate pair is time-only (no events/sec), so the regression gate
    // compares just the derived speedup below.
    r.bench("micro/queue/wheel_churn_50k_pending", || {
        black_box(wheel_churn_small())
    });
    r.bench("micro/queue/heap_churn_50k_pending", || {
        black_box(heap_churn_small())
    });
    r.record_speedup(
        "micro/queue/speedup_churn_50k",
        "micro/queue/wheel_churn_50k_pending",
        "micro/queue/heap_churn_50k_pending",
    );
}

/// An actor that floods the queue with pseudo-randomly spread timers, so the
/// engine-level bench runs with tens of thousands of pending events — the
/// regime the wheel was built for.
struct TimerStorm {
    remaining: u32,
}

const STORM_TIMERS: u64 = 50_000;

impl Actor<u64> for TimerStorm {
    fn on_event(&mut self, ev: Event<u64>, ctx: &mut Context<'_, u64>) {
        match ev {
            Event::Start => {
                for key in 0..STORM_TIMERS {
                    let delay = 1 + ctx.rng().next_below(1 << 30);
                    ctx.set_timer(SimDuration::from_nanos(delay), key);
                }
                self.remaining = STORM_TIMERS as u32;
            }
            Event::Timer { .. } => self.remaining -= 1,
            Event::Message { .. } => {}
        }
    }
}

fn bench_sim_engine(r: &mut Runner) {
    r.bench_events("micro/sim/timer_storm_50k_pending", STORM_TIMERS, || {
        let mut sim: Sim<u64> = Sim::new(5);
        sim.spawn("storm", || Box::new(TimerStorm { remaining: 0 }));
        sim.run();
        black_box(sim.events_processed())
    });
    r.bench_events("micro/sim/ping_pong_100k_events", 100_000, || {
        let mut sim: Sim<u64> = Sim::new(1);
        let a = sim.spawn("a", || Box::new(PingPong { peer: None }));
        sim.spawn("b", move || Box::new(PingPong { peer: Some(a) }));
        sim.run();
        black_box(sim.events_processed())
    });
    r.bench("micro/sim/spawn_kill_respawn_1k", || {
        let mut sim: Sim<u64> = Sim::new(2);
        let p = sim.spawn("victim", || Box::new(PingPong { peer: None }));
        for i in 0..1000u64 {
            sim.kill_after(SimDuration::from_millis(i * 2), p);
            sim.respawn_after(SimDuration::from_millis(i * 2 + 1), p);
        }
        sim.run_until(SimTime::from_secs(10));
        black_box(sim.events_processed())
    });
}

fn bench_msg_codec(r: &mut Runner) {
    let env = Envelope::new(
        "rtu",
        "fedr",
        123456,
        Message::TuneRadio {
            frequency_hz: 437_104_283.25,
            band: mercury_msg::RadioBand::Uhf,
        },
    );
    let wire = env.to_xml_string();
    r.bench("micro/msg/encode_envelope", || {
        black_box(env.to_xml_string())
    });
    // The tree-path twins do the same work through a document tree: the
    // `Element` sink and its serializer, and the fallback reader every
    // envelope off the recognised shape takes. As with the queue pairs, only
    // the in-process ratios are gated.
    r.bench("micro/msg/encode_envelope_tree", || {
        black_box(env.to_element().to_xml_string())
    });
    r.record_speedup(
        "micro/msg/speedup_encode",
        "micro/msg/encode_envelope",
        "micro/msg/encode_envelope_tree",
    );
    r.bench("micro/msg/parse_envelope", || {
        black_box(Envelope::parse(&wire).unwrap())
    });
    r.bench("micro/msg/parse_envelope_tree", || {
        let el = ElementRef::parse(&wire).unwrap();
        black_box(Envelope::decode(&el).unwrap())
    });
    r.record_speedup(
        "micro/msg/speedup_parse",
        "micro/msg/parse_envelope",
        "micro/msg/parse_envelope_tree",
    );
}

fn bench_rng_and_dist(r: &mut Runner) {
    let mut rng = SimRng::new(3);
    r.bench("micro/rng/xoshiro_1k_u64", || {
        let mut acc = 0u64;
        for _ in 0..1000 {
            acc ^= rng.next_u64();
        }
        black_box(acc)
    });
    let mut rng = SimRng::new(4);
    let d = rr_sim::Dist::exponential(600.0);
    r.bench("micro/rng/exponential_1k_samples", || {
        let mut acc = 0.0;
        for _ in 0..1000 {
            acc += d.sample_secs(&mut rng);
        }
        black_box(acc)
    });
}

fn bench_orbit(r: &mut Runner) {
    use mercury::orbit::{look_angle, predict_passes, GroundSite, Satellite};
    let site = GroundSite::stanford();
    let sat = Satellite::opal();
    let mut t = 0.0;
    r.bench("micro/orbit/look_angle", || {
        t += 17.0;
        black_box(look_angle(&site, &sat, t))
    });
    r.bench("micro/orbit/predict_passes_one_day", || {
        black_box(predict_passes(&site, &sat, 0.0, 86_400.0).len())
    });
}

/// Model-checker throughput: the built-in correlated-pair scenario on the
/// paper's tree III, reported as explored states/sec.
fn bench_model_checker(r: &mut Runner) {
    use mercury::config::names;
    use mercury::station::TreeVariant;
    use rr_model::{check, scenario, CheckConfig, Model, OracleKind, Scenario};

    let fault = |component: &str| scenario::FaultSpec {
        component: component.to_string(),
        cure_set: vec![component.to_string()],
    };
    let sc = Scenario {
        tree: "III".to_string(),
        oracle: OracleKind::Perfect,
        depth: None,
        faults: vec![fault(names::RTU), fault(names::SES)],
        mutation: None,
        admission: false,
        rehydrate: false,
        por_assume: None,
    };
    let tree = TreeVariant::III.tree().expect("paper tree builds");
    let cfg = CheckConfig {
        max_depth: 10, // keep one iteration in the low tens of milliseconds
        ..CheckConfig::default()
    };
    let model = Model::new(tree, &sc).expect("scenario is well-formed");
    // The exploration is deterministic, so one pilot run fixes the
    // states-per-iteration denominator for the throughput report — and
    // distinct_states is committed alongside, so full-vs-reduced ratios are
    // computable straight from BENCH files without rerunning.
    let pilot = check(&model, &cfg).expect("within budget");
    r.bench_events(
        "micro/model/pair_tree3_depth10_states",
        pilot.states_explored,
        || black_box(check(&model, &cfg).expect("within budget").states_explored),
    );
    r.record_count(
        "micro/model/pair_tree3_depth10_distinct",
        pilot.distinct_states,
    );
}

fn bench_tree_queries(r: &mut Runner) {
    use mercury::station::TreeVariant;
    let tree = TreeVariant::V.tree().expect("paper tree builds");
    r.bench("micro/tree/lowest_cover", || {
        black_box(tree.lowest_cover(&["fedr", "pbcom"]).unwrap())
    });
    r.bench("micro/tree/restart_path", || {
        black_box(tree.restart_path("fedr").unwrap())
    });
    r.bench("micro/tree/groups", || black_box(tree.groups().len()));
}

fn main() {
    let mut r = Runner::from_env();
    bench_queue(&mut r);
    bench_sim_engine(&mut r);
    bench_model_checker(&mut r);
    bench_msg_codec(&mut r);
    bench_rng_and_dist(&mut r);
    bench_orbit(&mut r);
    bench_tree_queries(&mut r);
    r.finish();
}
