//! The discrete-event simulation kernel: processes, messages, timers, faults.
//!
//! A [`Sim`] owns a set of processes (actors) and a time-ordered event queue.
//! Processes model the independently-restartable JVM processes of the Mercury
//! ground station: they communicate only by message passing, they can crash
//! (losing all state) or hang (fail-silent while resident), and they can be
//! respawned from a factory — the simulated equivalent of `SIGKILL` followed
//! by a supervised restart.
//!
//! Determinism: events are ordered by `(time, sequence-number)`, where the
//! sequence number is assigned at scheduling time, so ties are broken by
//! scheduling order and a run is a pure function of the seed and the inputs.

use std::collections::hash_map::Entry;
use std::fmt;

use crate::hash::{FxHashMap, FxHashSet};
use crate::rng::SimRng;
use crate::telemetry::Registry;
use crate::time::{SimDuration, SimTime};
use crate::trace::{Label, Trace, TraceKind};
use crate::wheel::TimerWheel;

/// Identifies a simulated process. Stable across crashes and restarts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(u32);

impl ProcessId {
    /// The id as a plain index (useful for keying per-process tables).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// The lifecycle state of a simulated process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessState {
    /// Running and processing events normally.
    Running,
    /// Crashed: state lost, all incoming events silently dropped
    /// (fail-silent, like a dead JVM).
    Crashed,
    /// Hung: actor state is still resident but the process consumes no
    /// events. Indistinguishable from `Crashed` to observers — which is the
    /// point: application-level liveness pings detect both.
    Hung,
    /// Zombie: the process still answers whatever the
    /// [zombie filter](Sim::set_zombie_filter) admits (typically liveness
    /// pings) but silently drops all other traffic and its own timers. It
    /// looks alive to a ping-based detector while doing no useful work —
    /// the failure mode application-level liveness checks exist to catch.
    Zombie,
}

/// Wire-level quality of a network link: the degraded-communication fault
/// model. A lossy link drops messages without either endpoint failing — the
/// regime in which naive failure detectors produce false positives and
/// restart storms.
///
/// Install on every link with [`Sim::set_default_link_quality`]. All
/// randomness comes from a per-link stream derived from the simulation seed,
/// so degraded runs stay bit-for-bit reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkQuality {
    /// Probability in `[0, 1]` that each message is dropped.
    pub loss: f64,
}

impl LinkQuality {
    /// A link that drops each message independently with probability `loss`.
    pub fn lossy(loss: f64) -> LinkQuality {
        LinkQuality { loss }
    }
}

/// An event delivered to an actor.
#[derive(Debug)]
pub enum Event<M> {
    /// The process has just (re)started. Delivered once per incarnation.
    Start,
    /// A message from another process.
    Message {
        /// The sending process.
        src: ProcessId,
        /// The message payload.
        payload: M,
    },
    /// A timer previously set via [`Context::set_timer`] has fired.
    Timer {
        /// The caller-chosen key identifying which timer fired.
        key: u64,
    },
}

/// A simulated process: reacts to [`Event`]s using the capabilities offered by
/// [`Context`].
///
/// Actors own all of their state. A crash discards the actor value; a respawn
/// constructs a fresh one from the factory passed to [`Sim::spawn`], which is
/// exactly the "unequivocally return software to its start state" property
/// (§3) that makes restarts an effective cure for transient failures.
pub trait Actor<M> {
    /// Handles one event. `ctx` provides the current time, messaging, timers,
    /// randomness and tracing.
    fn on_event(&mut self, ev: Event<M>, ctx: &mut Context<'_, M>);
}

/// Boxed actor constructor used to (re)create a process's state.
type ActorFactory<M> = Box<dyn FnMut() -> Box<dyn Actor<M>>>;

struct ProcEntry<M> {
    name: String,
    state: ProcessState,
    /// Bumped on every respawn; guards stale timers from firing into a new
    /// incarnation.
    incarnation: u64,
    actor: Option<Box<dyn Actor<M>>>,
    factory: ActorFactory<M>,
    rng: SimRng,
}

enum Action<M> {
    Deliver {
        dst: ProcessId,
        ev: Event<M>,
        /// For timers: only deliver if the destination is still in this
        /// incarnation.
        incarnation: Option<u64>,
    },
    Kill(ProcessId),
    Hang(ProcessId),
    Zombify(ProcessId),
    Respawn(ProcessId),
}

/// The simulation kernel. See the [crate docs](crate) for an example.
///
/// The event queue is a hierarchical [`TimerWheel`] keyed by
/// `(time, schedule-seq)`, which pops in exactly the order the previous
/// `BinaryHeap` implementation did (a differential property suite in
/// `crates/sim/tests/wheel_differential.rs` locks the equivalence) at
/// `O(1)` per event instead of `O(log n)`.
pub struct Sim<M> {
    now: SimTime,
    seq: u64,
    queue: TimerWheel<Action<M>>,
    procs: Vec<ProcEntry<M>>,
    by_name: FxHashMap<String, ProcessId>,
    root_rng: SimRng,
    trace: Trace,
    /// Folds every protocol mark the trace receives; disabled (one branch
    /// per mark) unless replaced through [`Sim::telemetry_mut`].
    telemetry: Registry,
    events_processed: u64,
    /// Severed links: messages between these unordered pairs are dropped
    /// (network-partition fault injection).
    severed: FxHashSet<(ProcessId, ProcessId)>,
    /// Quality applied to every link.
    default_link_quality: Option<LinkQuality>,
    /// Lazily-created per-link random streams driving loss.
    link_rngs: FxHashMap<(ProcessId, ProcessId), SimRng>,
    /// Which message payloads a zombie process still answers.
    zombie_filter: Option<ZombieFilter<M>>,
    /// Processes that crash again immediately on every respawn.
    persistent_crash: FxHashSet<ProcessId>,
}

/// Predicate selecting the payloads a zombie process still answers.
type ZombieFilter<M> = Box<dyn Fn(&M) -> bool>;

/// Canonical unordered key for a process pair.
fn pair_key(a: ProcessId, b: ProcessId) -> (ProcessId, ProcessId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Stream key for a link's private RNG: a stable function of the pair, so the
/// stream is the same regardless of direction or when the link first degrades.
fn link_stream(key: (ProcessId, ProcessId)) -> u64 {
    0x11CC_0000_0000_0000 ^ ((key.0 .0 as u64) << 32) ^ key.1 .0 as u64
}

impl<M> fmt::Debug for Sim<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("processes", &self.procs.len())
            .field("queued", &self.queue.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

impl<M> Sim<M> {
    /// Creates an empty simulation seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            queue: TimerWheel::new(),
            procs: Vec::new(),
            by_name: FxHashMap::default(),
            root_rng: SimRng::new(seed),
            trace: Trace::new(),
            telemetry: Registry::disabled(),
            events_processed: 0,
            severed: FxHashSet::default(),
            default_link_quality: None,
            link_rngs: FxHashMap::default(),
            zombie_filter: None,
            persistent_crash: FxHashSet::default(),
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Spawns a new process named `name`, built by `factory`, and delivers
    /// [`Event::Start`] to it at the current time.
    ///
    /// # Panics
    ///
    /// Panics if a process with the same name already exists.
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        mut factory: impl FnMut() -> Box<dyn Actor<M>> + 'static,
    ) -> ProcessId {
        let name = name.into();
        let id = ProcessId(self.procs.len() as u32);
        match self.by_name.entry(name.clone()) {
            Entry::Occupied(_) => panic!("process name {name:?} already in use"),
            Entry::Vacant(v) => {
                v.insert(id);
            }
        }
        let actor = factory();
        let rng = self.root_rng.split(0x5EED_0000 + id.0 as u64);
        self.procs.push(ProcEntry {
            name: name.clone(),
            state: ProcessState::Running,
            incarnation: 0,
            actor: Some(actor),
            factory: Box::new(factory),
            rng,
        });
        self.trace
            .record(self.now, Some(id), TraceKind::Spawned, name);
        self.schedule(
            SimDuration::ZERO,
            Action::Deliver {
                dst: id,
                ev: Event::Start,
                incarnation: Some(0),
            },
        );
        id
    }

    /// Looks up a process id by name.
    pub fn lookup(&self, name: &str) -> Option<ProcessId> {
        self.by_name.get(name).copied()
    }

    /// The name a process was spawned with.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not identify a spawned process.
    pub fn name(&self, id: ProcessId) -> &str {
        &self.procs[id.index()].name
    }

    /// The current lifecycle state of a process.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not identify a spawned process.
    pub fn state(&self, id: ProcessId) -> ProcessState {
        self.procs[id.index()].state
    }

    /// Read access to the structured event log.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The recovery-episode telemetry the trace's protocol marks fold into.
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// Mutable access to the telemetry: install an enabled
    /// [`Registry::new`] to record, or record what no mark carries
    /// ([`Registry::record_injected`]).
    pub fn telemetry_mut(&mut self) -> &mut Registry {
        &mut self.telemetry
    }

    /// Appends a mark to the trace from outside any actor (e.g. the harness).
    pub fn mark(&mut self, label: impl Into<Label>) {
        self.record_mark(None, label.into());
    }

    /// Appends a mark to the trace, folding a protocol fact into the
    /// telemetry.
    fn record_mark(&mut self, pid: Option<ProcessId>, label: Label) {
        if let Label::Mark(mark) = &label {
            self.telemetry.record(self.now, mark);
        }
        self.trace.record_mark(self.now, pid, label);
    }

    /// Crashes `id` after `delay`: its state is discarded and it silently
    /// drops all events until respawned. This is the simulated `SIGKILL` used
    /// by the paper's fault-injection experiments (§4.1).
    pub fn kill_after(&mut self, delay: SimDuration, id: ProcessId) {
        self.schedule(delay, Action::Kill(id));
    }

    /// Crashes `id` at the current time. See [`Sim::kill_after`].
    pub fn kill(&mut self, id: ProcessId) {
        self.kill_after(SimDuration::ZERO, id);
    }

    /// Hangs `id` after `delay`: fail-silent but state-resident (a wedged
    /// process). Observationally identical to a crash; cured by respawn.
    pub fn hang_after(&mut self, delay: SimDuration, id: ProcessId) {
        self.schedule(delay, Action::Hang(id));
    }

    /// Restarts `id` after `delay`: a fresh actor is built from the factory
    /// and receives [`Event::Start`]. The delay models the component's boot
    /// time.
    pub fn respawn_after(&mut self, delay: SimDuration, id: ProcessId) {
        self.schedule(delay, Action::Respawn(id));
    }

    /// Severs or heals the network link between two processes. While a link
    /// is severed, messages between the pair (either direction) are silently
    /// dropped at delivery time — a network partition, observationally
    /// identical to the far side having crashed (which is exactly why
    /// fail-silent detectors cannot tell the difference).
    pub fn set_link(&mut self, a: ProcessId, b: ProcessId, up: bool) {
        let key = pair_key(a, b);
        if up {
            self.severed.remove(&key);
        } else {
            self.severed.insert(key);
        }
    }

    /// `true` if the link between `a` and `b` is currently up.
    fn link_up(&self, a: ProcessId, b: ProcessId) -> bool {
        !self.severed.contains(&pair_key(a, b))
    }

    /// Turns `id` into a zombie at the current time: the process keeps
    /// answering whatever the [zombie filter](Sim::set_zombie_filter) admits
    /// (e.g. liveness pings) and silently drops everything else, including
    /// its own timers. This models a process alive enough to satisfy a naive
    /// ping-based failure detector while doing no useful work.
    pub fn zombie(&mut self, id: ProcessId) {
        self.schedule(SimDuration::ZERO, Action::Zombify(id));
    }

    /// Installs the predicate deciding which message payloads a
    /// [zombie](Sim::zombie) still answers. Without a filter, a zombie
    /// drops everything and is observationally identical to a hang.
    pub fn set_zombie_filter(&mut self, filter: impl Fn(&M) -> bool + 'static) {
        self.zombie_filter = Some(Box::new(filter));
    }

    /// Marks `id` as persistently crashed: every respawn is followed by an
    /// immediate crash, so restarts never cure it. This is the "hard"
    /// failure used to exercise escalation and give-up paths.
    pub fn set_persistent_crash(&mut self, id: ProcessId) {
        self.persistent_crash.insert(id);
    }

    /// Applies `quality` to every link: each message crossing one is lost
    /// with its probability, drawn from a per-link random stream derived from
    /// the simulation seed. `None` restores perfect links.
    pub fn set_default_link_quality(&mut self, quality: Option<LinkQuality>) {
        self.default_link_quality = quality;
    }

    /// Sends `payload` from `src` to `dst` after `delay`, from outside any
    /// actor (e.g. initial stimulus from the harness).
    pub fn send_external(
        &mut self,
        src: ProcessId,
        dst: ProcessId,
        delay: SimDuration,
        payload: M,
    ) {
        self.schedule(
            delay,
            Action::Deliver {
                dst,
                ev: Event::Message { src, payload },
                incarnation: None,
            },
        );
    }

    fn schedule(&mut self, delay: SimDuration, action: Action<M>) {
        let time = self.now + delay;
        let seq = self.seq;
        self.seq += 1;
        self.queue.schedule(time, seq, action);
    }

    /// Processes the next event, if any. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        let Some((time, _seq, action)) = self.queue.pop() else {
            return false;
        };
        self.dispatch(time, action);
        true
    }

    /// Advances the clock to `time` and carries out `action`, the event
    /// just popped.
    fn dispatch(&mut self, time: SimTime, action: Action<M>) {
        debug_assert!(time >= self.now, "time went backwards");
        self.now = time;
        self.events_processed += 1;
        match action {
            Action::Deliver {
                dst,
                ev,
                incarnation,
            } => self.deliver(dst, ev, incarnation),
            Action::Kill(id) => self.do_kill(id),
            Action::Hang(id) => self.do_hang(id),
            Action::Zombify(id) => self.do_zombify(id),
            Action::Respawn(id) => self.do_respawn(id),
        }
    }

    /// Runs until the event queue is empty. Returns the number of events
    /// processed.
    pub fn run(&mut self) -> u64 {
        let start = self.events_processed;
        while self.step() {}
        self.events_processed - start
    }

    /// Runs until the queue is empty or virtual time would pass `deadline`,
    /// then sets the clock to `deadline` if it was reached. Events scheduled
    /// exactly at `deadline` are processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let start = self.events_processed;
        while let Some((time, _seq, action)) = self.queue.pop_until(deadline) {
            self.dispatch(time, action);
        }
        if self.now < deadline {
            self.now = deadline;
        }
        self.events_processed - start
    }

    /// Runs for `d` of virtual time. See [`Sim::run_until`].
    pub fn run_for(&mut self, d: SimDuration) -> u64 {
        let deadline = self.now + d;
        self.run_until(deadline)
    }

    fn deliver(&mut self, dst: ProcessId, ev: Event<M>, incarnation: Option<u64>) {
        if let Event::Message { src, .. } = &ev {
            let src = *src;
            // Fast paths: with no severed links there is nothing to look up,
            // and with no link quality there is no loss to roll (per-link RNG
            // streams are only ever drawn when a quality is installed, so
            // skipping the lookups cannot shift any random stream).
            if !self.severed.is_empty() && !self.link_up(src, dst) {
                self.trace.record(
                    self.now,
                    Some(dst),
                    TraceKind::Dropped,
                    format!("partition:{src}->{dst}"),
                );
                return;
            }
            if let Some(q) = self.default_link_quality {
                let key = pair_key(src, dst);
                let rng = self
                    .link_rngs
                    .entry(key)
                    .or_insert_with(|| self.root_rng.split(link_stream(key)));
                let lost = rng.chance(q.loss);
                // Each message takes four draws, as when links also rolled
                // jitter, duplication and the copy's jitter: a seed's loss
                // pattern, and every campaign recorded on it, stays the same.
                for _ in 0..3 {
                    rng.next_u64();
                }
                if lost {
                    self.trace.record(
                        self.now,
                        Some(dst),
                        TraceKind::Dropped,
                        format!("loss:{src}->{dst}"),
                    );
                    return;
                }
            }
        }
        let entry = &mut self.procs[dst.index()];
        if let Some(inc) = incarnation {
            if inc != entry.incarnation {
                return; // stale timer / start event from a previous incarnation
            }
        }
        match entry.state {
            ProcessState::Running => {}
            // A zombie answers only what its filter admits; everything else
            // — including its own timers — vanishes.
            ProcessState::Zombie => {
                let answers = matches!(&ev, Event::Message { payload, .. }
                    if self.zombie_filter.as_ref().is_some_and(|f| f(payload)));
                if !answers {
                    let label = format!("zombie:{}", entry.name);
                    self.trace
                        .record(self.now, Some(dst), TraceKind::Dropped, label);
                    return;
                }
            }
            ProcessState::Crashed | ProcessState::Hung => {
                self.trace
                    .record(self.now, Some(dst), TraceKind::Dropped, entry.name.clone());
                return;
            }
        }
        let entry = &mut self.procs[dst.index()];
        let Some(mut actor) = entry.actor.take() else {
            return;
        };
        let taken_incarnation = entry.incarnation;
        let mut ctx = Context { sim: self, id: dst };
        actor.on_event(ev, &mut ctx);
        // Restore the actor unless the process killed or respawned itself
        // while handling the event.
        let entry = &mut self.procs[dst.index()];
        if entry.incarnation == taken_incarnation && entry.actor.is_none() {
            entry.actor = Some(actor);
        }
    }

    fn do_kill(&mut self, id: ProcessId) {
        let entry = &mut self.procs[id.index()];
        if entry.state == ProcessState::Crashed {
            return;
        }
        entry.state = ProcessState::Crashed;
        entry.actor = None;
        let name = entry.name.clone();
        self.trace
            .record(self.now, Some(id), TraceKind::Crashed, name);
    }

    fn do_hang(&mut self, id: ProcessId) {
        let entry = &mut self.procs[id.index()];
        if entry.state != ProcessState::Running {
            return;
        }
        entry.state = ProcessState::Hung;
        let name = entry.name.clone();
        self.trace.record(self.now, Some(id), TraceKind::Hung, name);
    }

    fn do_zombify(&mut self, id: ProcessId) {
        let entry = &mut self.procs[id.index()];
        if entry.state != ProcessState::Running {
            return;
        }
        entry.state = ProcessState::Zombie;
        let name = entry.name.clone();
        self.trace
            .record(self.now, Some(id), TraceKind::Zombified, name);
    }

    fn do_respawn(&mut self, id: ProcessId) {
        let entry = &mut self.procs[id.index()];
        entry.incarnation += 1;
        entry.state = ProcessState::Running;
        entry.actor = Some((entry.factory)());
        let inc = entry.incarnation;
        let name = entry.name.clone();
        self.trace
            .record(self.now, Some(id), TraceKind::Restarted, name);
        self.schedule(
            SimDuration::ZERO,
            Action::Deliver {
                dst: id,
                ev: Event::Start,
                incarnation: Some(inc),
            },
        );
        if self.persistent_crash.contains(&id) {
            // A hard failure: the component dies again the instant it comes
            // back, so restarts alone can never cure it.
            self.schedule(SimDuration::ZERO, Action::Kill(id));
        }
    }
}

/// Capabilities handed to an actor while it handles an event.
pub struct Context<'a, M> {
    sim: &'a mut Sim<M>,
    id: ProcessId,
}

impl<M> fmt::Debug for Context<'_, M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Context").field("id", &self.id).finish()
    }
}

impl<M> Context<'_, M> {
    /// The id of the process handling the event.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now
    }

    /// Looks up a process id by name.
    pub fn lookup(&self, name: &str) -> Option<ProcessId> {
        self.sim.lookup(name)
    }

    /// The lifecycle state of any process (used by the recoverer; ordinary
    /// components should rely on pings, not this omniscient view).
    pub fn state_of(&self, id: ProcessId) -> ProcessState {
        self.sim.state(id)
    }

    /// Sends `payload` to `dst` after `delay`.
    pub fn send_after(&mut self, dst: ProcessId, delay: SimDuration, payload: M) {
        let src = self.id;
        self.sim.schedule(
            delay,
            Action::Deliver {
                dst,
                ev: Event::Message { src, payload },
                incarnation: None,
            },
        );
    }

    /// Sends `payload` to `dst` with no delay (delivered after currently
    /// queued same-time events).
    pub fn send(&mut self, dst: ProcessId, payload: M) {
        self.send_after(dst, SimDuration::ZERO, payload);
    }

    /// Sets a timer that fires [`Event::Timer`] with `key` after `delay`.
    /// Timers die with the incarnation that set them: if this process is
    /// killed or respawned first, the timer is silently discarded.
    pub fn set_timer(&mut self, delay: SimDuration, key: u64) {
        let inc = self.sim.procs[self.id.index()].incarnation;
        let dst = self.id;
        self.sim.schedule(
            delay,
            Action::Deliver {
                dst,
                ev: Event::Timer { key },
                incarnation: Some(inc),
            },
        );
    }

    /// This process's private random stream.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.sim.procs[self.id.index()].rng
    }

    /// Records a mark in the trace attributed to this process; a protocol
    /// fact also folds into the telemetry.
    pub fn trace_mark(&mut self, label: impl Into<Label>) {
        self.sim.record_mark(Some(self.id), label.into());
    }

    /// The simulation's telemetry, for live metrics (`incr`, `observe`,
    /// `set_gauge`).
    pub fn telemetry(&mut self) -> &mut Registry {
        &mut self.sim.telemetry
    }

    /// Crashes another process (or this one) after `delay`. Used by fault
    /// injectors and by components whose failure provably induces a peer
    /// failure (e.g. repeated `fedr` crashes aging `pbcom`, §4.2).
    pub fn kill_after(&mut self, delay: SimDuration, id: ProcessId) {
        self.sim.kill_after(delay, id);
    }

    /// Hangs another process (or this one) after `delay`.
    pub fn hang_after(&mut self, delay: SimDuration, id: ProcessId) {
        self.sim.hang_after(delay, id);
    }

    /// Respawns a process after `delay` — the recoverer's restart primitive.
    pub fn respawn_after(&mut self, delay: SimDuration, id: ProcessId) {
        self.sim.respawn_after(delay, id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Msg {
        Ping,
        Pong,
    }

    /// Replies Pong to every Ping.
    struct Responder;
    impl Actor<Msg> for Responder {
        fn on_event(&mut self, ev: Event<Msg>, ctx: &mut Context<'_, Msg>) {
            if let Event::Message {
                src,
                payload: Msg::Ping,
            } = ev
            {
                ctx.send_after(src, SimDuration::from_millis(10), Msg::Pong);
            }
        }
    }

    /// Pings the responder every second and counts replies.
    struct Pinger {
        target: &'static str,
        pongs: std::rc::Rc<std::cell::Cell<u32>>,
    }
    impl Actor<Msg> for Pinger {
        fn on_event(&mut self, ev: Event<Msg>, ctx: &mut Context<'_, Msg>) {
            match ev {
                Event::Start => ctx.set_timer(SimDuration::from_secs(1), 0),
                Event::Timer { .. } => {
                    let dst = ctx.lookup(self.target).unwrap();
                    ctx.send(dst, Msg::Ping);
                    ctx.set_timer(SimDuration::from_secs(1), 0);
                }
                Event::Message {
                    payload: Msg::Pong, ..
                } => {
                    self.pongs.set(self.pongs.get() + 1);
                }
                Event::Message { .. } => {}
            }
        }
    }

    fn ping_sim() -> (Sim<Msg>, ProcessId, std::rc::Rc<std::cell::Cell<u32>>) {
        seeded_ping_sim(1)
    }

    fn seeded_ping_sim(seed: u64) -> (Sim<Msg>, ProcessId, std::rc::Rc<std::cell::Cell<u32>>) {
        let mut sim = Sim::new(seed);
        let responder = sim.spawn("responder", || Box::new(Responder));
        let pongs = std::rc::Rc::new(std::cell::Cell::new(0));
        let p = pongs.clone();
        sim.spawn("pinger", move || {
            Box::new(Pinger {
                target: "responder",
                pongs: p.clone(),
            })
        });
        (sim, responder, pongs)
    }

    #[test]
    fn messages_flow_and_time_advances() {
        let (mut sim, _, pongs) = ping_sim();
        sim.run_until(SimTime::from_secs(5));
        // Pings at t=1..=5, replies 10ms later; the t=5 reply arrives at 5.01.
        assert_eq!(pongs.get(), 4);
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    #[test]
    fn crashed_process_drops_messages() {
        let (mut sim, responder, pongs) = ping_sim();
        // Run past t=2.01 so the t=2 ping's reply has landed.
        sim.run_until(SimTime::from_secs_f64(2.5));
        let before = pongs.get();
        assert_eq!(before, 2);
        sim.kill(responder);
        sim.run_until(SimTime::from_secs(6));
        assert_eq!(pongs.get(), before, "dead responder must not reply");
        assert_eq!(sim.state(responder), ProcessState::Crashed);
    }

    #[test]
    fn hung_process_is_fail_silent_but_state_resident() {
        let (mut sim, responder, pongs) = ping_sim();
        sim.run_until(SimTime::from_secs_f64(2.5));
        sim.hang_after(SimDuration::ZERO, responder);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(pongs.get(), 2);
        assert_eq!(sim.state(responder), ProcessState::Hung);
    }

    #[test]
    fn respawn_restores_service() {
        let (mut sim, responder, pongs) = ping_sim();
        sim.run_until(SimTime::from_secs(2));
        sim.kill(responder);
        sim.respawn_after(SimDuration::from_secs(2), responder); // back at t=4
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(sim.state(responder), ProcessState::Running);
        // Pings at 1 (answered), 2..4 dropped (dead 2..4), 4..=9 answered-ish:
        // respawn lands exactly at t=4; the t=4 ping is scheduled before the
        // respawn in the same instant? Both occur at t=4 — order by seq: the
        // pinger timer was scheduled at t=3 (seq earlier than respawn set at
        // t=2)... we only assert that replies resumed.
        assert!(pongs.get() >= 6, "pongs after recovery: {}", pongs.get());
    }

    #[test]
    fn stale_timers_do_not_fire_into_new_incarnation() {
        struct OneShot {
            fired: std::rc::Rc<std::cell::Cell<u32>>,
        }
        impl Actor<Msg> for OneShot {
            fn on_event(&mut self, ev: Event<Msg>, ctx: &mut Context<'_, Msg>) {
                match ev {
                    Event::Start => ctx.set_timer(SimDuration::from_secs(10), 7),
                    Event::Timer { key } => {
                        assert_eq!(key, 7);
                        self.fired.set(self.fired.get() + 1);
                    }
                    _ => {}
                }
            }
        }
        let fired = std::rc::Rc::new(std::cell::Cell::new(0));
        let f = fired.clone();
        let mut sim: Sim<Msg> = Sim::new(3);
        let p = sim.spawn("oneshot", move || Box::new(OneShot { fired: f.clone() }));
        sim.run_until(SimTime::from_secs(1));
        sim.kill(p);
        sim.respawn_after(SimDuration::from_secs(1), p); // new incarnation at t=2
        sim.run_until(SimTime::from_secs(30));
        // Old timer (set at t=0, fires t=10) must be dropped; the new
        // incarnation's timer (set at t=2, fires t=12) fires once.
        assert_eq!(fired.get(), 1);
    }

    #[test]
    fn respawn_loses_state() {
        struct Counter {
            seen: u32,
            out: std::rc::Rc<std::cell::Cell<u32>>,
        }
        impl Actor<Msg> for Counter {
            fn on_event(&mut self, ev: Event<Msg>, _ctx: &mut Context<'_, Msg>) {
                if matches!(ev, Event::Message { .. }) {
                    self.seen += 1;
                    self.out.set(self.seen);
                }
            }
        }
        let out = std::rc::Rc::new(std::cell::Cell::new(0));
        let o = out.clone();
        let mut sim: Sim<Msg> = Sim::new(4);
        let p = sim.spawn("counter", move || {
            Box::new(Counter {
                seen: 0,
                out: o.clone(),
            })
        });
        let src = sim.spawn("src", || Box::new(Responder));
        sim.send_external(src, p, SimDuration::from_secs(1), Msg::Ping);
        sim.send_external(src, p, SimDuration::from_secs(2), Msg::Ping);
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(out.get(), 2);
        sim.kill(p);
        sim.respawn_after(SimDuration::from_secs(1), p);
        sim.send_external(src, p, SimDuration::from_secs(5), Msg::Ping);
        sim.run();
        assert_eq!(
            out.get(),
            1,
            "restart must reset the counter to its start state"
        );
    }

    #[test]
    fn deterministic_event_counts() {
        let run = |seed| {
            let (mut sim, responder, _) = ping_sim();
            let _ = seed;
            sim.kill_after(SimDuration::from_secs_f64(2.5), responder);
            sim.respawn_after(SimDuration::from_secs_f64(4.25), responder);
            sim.run_until(SimTime::from_secs(20));
            (sim.events_processed(), sim.trace().len())
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    #[should_panic(expected = "already in use")]
    fn duplicate_names_rejected() {
        let mut sim: Sim<Msg> = Sim::new(5);
        sim.spawn("x", || Box::new(Responder));
        sim.spawn("x", || Box::new(Responder));
    }

    #[test]
    fn run_until_advances_clock_even_without_events() {
        let mut sim: Sim<Msg> = Sim::new(6);
        sim.run_until(SimTime::from_secs(42));
        assert_eq!(sim.now(), SimTime::from_secs(42));
    }

    /// A name keeps its process id through every fault and restart, because
    /// the engine never despawns; a component may therefore resolve a peer
    /// once and keep the id.
    #[test]
    fn lookup_is_stable_across_kill_hang_and_respawn() {
        let (mut sim, responder, _) = ping_sim();
        sim.run_until(SimTime::from_secs(2));
        for hang in [false, true] {
            if hang {
                sim.hang_after(SimDuration::ZERO, responder);
            } else {
                sim.kill(responder);
            }
            sim.run_for(SimDuration::from_secs(1));
            assert_ne!(sim.state(responder), ProcessState::Running);
            assert_eq!(sim.lookup("responder"), Some(responder));
            sim.respawn_after(SimDuration::ZERO, responder);
            sim.run_for(SimDuration::from_secs(1));
            assert_eq!(sim.state(responder), ProcessState::Running);
            assert_eq!(sim.lookup("responder"), Some(responder));
        }
    }

    /// Logs every event it sees. Cycles timer keys 0, 1, 2 (250 or 500 ms
    /// apart) and pings its peer on each with a delay of 100 ms per key, so
    /// a key-0 timer and both zero-delay pings share an instant. Quiet after
    /// 3 s.
    struct Chatter {
        peer: &'static str,
        log: std::rc::Rc<std::cell::RefCell<Vec<(SimTime, ProcessId, String)>>>,
    }
    impl Actor<Msg> for Chatter {
        fn on_event(&mut self, ev: Event<Msg>, ctx: &mut Context<'_, Msg>) {
            self.log
                .borrow_mut()
                .push((ctx.now(), ctx.id(), format!("{ev:?}")));
            let key = match ev {
                Event::Start => 0,
                Event::Timer { key } => key,
                Event::Message { .. } => return,
            };
            if ctx.now() < SimTime::from_secs(3) {
                ctx.set_timer(SimDuration::from_millis(250 * (1 + key % 2)), (key + 1) % 3);
                let peer = ctx.lookup(self.peer).unwrap();
                ctx.send_after(peer, SimDuration::from_millis(100 * key), Msg::Ping);
            }
        }
    }

    /// The peek-then-step loop `run_until` replaced.
    fn peek_then_step_until(sim: &mut Sim<Msg>, deadline: SimTime) -> u64 {
        let start = sim.events_processed;
        while let Some(head) = sim.queue.peek_time() {
            if head > deadline {
                break;
            }
            sim.step();
        }
        if sim.now < deadline {
            sim.now = deadline;
        }
        sim.events_processed - start
    }

    /// `run_until` dispatches what the peek-then-step loop dispatches, in
    /// the same order, at deadlines on an event, between two events and
    /// past the last one, and leaves the same clock and count.
    #[test]
    fn run_until_dispatches_what_peek_then_step_dispatches() {
        type Log = std::rc::Rc<std::cell::RefCell<Vec<(SimTime, ProcessId, String)>>>;
        let chatter = |log: &Log| {
            let mut sim: Sim<Msg> = Sim::new(12);
            for (name, peer) in [("a", "b"), ("b", "a")] {
                let log = log.clone();
                sim.spawn(name, move || {
                    Box::new(Chatter {
                        peer,
                        log: log.clone(),
                    })
                });
            }
            sim
        };
        let (fast_log, slow_log) = (Log::default(), Log::default());
        let (mut fast, mut slow) = (chatter(&fast_log), chatter(&slow_log));
        let ms = |ms: u64| SimTime::from_nanos(ms * 1_000_000);
        let deadlines = [
            SimTime::ZERO,                    // the spawn instant
            ms(250),                          // a timer instant
            SimTime::from_nanos(620_000_001), // between pings at 350 and timers at 750 ms
            ms(1000),                         // timers and pings together
            SimTime::from_secs(60),           // past the last event
        ];
        for deadline in deadlines {
            let ran = fast.run_until(deadline);
            assert_eq!(ran, peek_then_step_until(&mut slow, deadline));
            assert_eq!(fast.now(), slow.now());
            assert_eq!(fast.events_processed(), slow.events_processed());
            assert_eq!(fast.seq, slow.seq, "the same events were scheduled");
            assert_eq!(*fast_log.borrow(), *slow_log.borrow());
        }
        assert!(fast.queue.is_empty());
        assert!(fast.events_processed() > 30, "{}", fast.events_processed());
    }

    #[test]
    fn lookup_and_names() {
        let mut sim: Sim<Msg> = Sim::new(7);
        let a = sim.spawn("alpha", || Box::new(Responder));
        assert_eq!(sim.lookup("alpha"), Some(a));
        assert_eq!(sim.lookup("beta"), None);
        assert_eq!(sim.name(a), "alpha");
    }

    #[test]
    fn kill_is_idempotent() {
        let mut sim: Sim<Msg> = Sim::new(8);
        let a = sim.spawn("a", || Box::new(Responder));
        sim.kill(a);
        sim.kill(a);
        sim.run();
        let crashes = sim
            .trace()
            .iter()
            .filter(|e| e.kind == TraceKind::Crashed)
            .count();
        assert_eq!(crashes, 1);
    }

    #[test]
    fn partition_drops_messages_both_ways_until_healed() {
        let (mut sim, responder, pongs) = ping_sim();
        sim.run_until(SimTime::from_secs_f64(2.5));
        assert_eq!(pongs.get(), 2);
        let pinger = sim.lookup("pinger").unwrap();
        sim.set_link(pinger, responder, false);
        assert!(!sim.link_up(pinger, responder));
        sim.run_until(SimTime::from_secs_f64(6.5));
        // Both processes are Running, but no pings get through: a partition
        // is observationally identical to a crash.
        assert_eq!(pongs.get(), 2);
        assert_eq!(sim.state(responder), ProcessState::Running);
        sim.set_link(pinger, responder, true);
        sim.run_until(SimTime::from_secs_f64(10.5));
        assert!(
            pongs.get() >= 5,
            "pings resume after healing: {}",
            pongs.get()
        );
    }

    #[test]
    fn zombie_answers_filtered_messages_only() {
        let (mut sim, responder, pongs) = ping_sim();
        sim.set_zombie_filter(|m| matches!(m, Msg::Ping));
        sim.run_until(SimTime::from_secs_f64(2.5));
        assert_eq!(pongs.get(), 2);
        sim.zombie(responder);
        sim.run_until(SimTime::from_secs_f64(6.5));
        // The zombie responder still answers pings: observationally alive.
        assert_eq!(sim.state(responder), ProcessState::Zombie);
        assert!(
            pongs.get() >= 5,
            "zombie must keep answering pings: {}",
            pongs.get()
        );
    }

    #[test]
    fn zombie_without_filter_is_fail_silent() {
        let (mut sim, responder, pongs) = ping_sim();
        sim.run_until(SimTime::from_secs_f64(2.5));
        sim.zombie(responder);
        sim.run_until(SimTime::from_secs(6));
        assert_eq!(pongs.get(), 2, "no filter: the zombie drops everything");
        let zombie_drops = sim
            .trace()
            .iter()
            .filter(|e| {
                e.kind == TraceKind::Dropped && e.text().is_some_and(|l| l.starts_with("zombie:"))
            })
            .count();
        assert!(zombie_drops > 0);
    }

    #[test]
    fn zombie_timers_are_dropped() {
        let (mut sim, _responder, pongs) = ping_sim();
        sim.set_zombie_filter(|m| matches!(m, Msg::Ping));
        let pinger = sim.lookup("pinger").unwrap();
        sim.run_until(SimTime::from_secs_f64(2.5));
        sim.zombie(pinger);
        sim.run_until(SimTime::from_secs(8));
        // The pinger's periodic timer dies with zombification, so no more
        // pings are sent even though the responder is healthy.
        assert_eq!(pongs.get(), 2);
    }

    #[test]
    fn respawn_cures_zombie() {
        let (mut sim, responder, pongs) = ping_sim();
        sim.run_until(SimTime::from_secs_f64(2.5));
        sim.zombie(responder);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(pongs.get(), 2);
        sim.respawn_after(SimDuration::ZERO, responder);
        sim.run_until(SimTime::from_secs(9));
        assert_eq!(sim.state(responder), ProcessState::Running);
        assert!(
            pongs.get() >= 5,
            "service resumes after respawn: {}",
            pongs.get()
        );
    }

    /// The loss stream is pinned: seed 42 reads what it read when every
    /// message also drew jitter and duplication, so a change to the draws per
    /// message fails here, not only in the experiment report.
    #[test]
    fn degraded_links_are_deterministic() {
        let run = |seed: u64| {
            let (mut sim, _, pongs) = seeded_ping_sim(seed);
            sim.set_default_link_quality(Some(LinkQuality::lossy(0.4)));
            sim.run_until(SimTime::from_secs(60));
            (pongs.get(), sim.trace().len(), sim.events_processed())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
        assert_eq!(run(42), (21, 40, 161));
        let (pongs, _, _) = run(42);
        assert!(pongs > 0, "some pings must survive 40% loss");
        assert!(pongs < 59, "some pings must be lost");
    }

    #[test]
    fn default_link_quality_applies_everywhere_and_clears() {
        let (mut sim, responder, pongs) = ping_sim();
        sim.set_default_link_quality(Some(LinkQuality::lossy(1.0)));
        sim.run_until(SimTime::from_secs(4));
        assert_eq!(pongs.get(), 0);
        assert!(sim
            .trace()
            .iter()
            .any(|e| e.kind == TraceKind::Dropped
                && e.text().is_some_and(|l| l.starts_with("loss:"))));
        // Both endpoints stayed healthy: pure wire loss.
        assert_eq!(sim.state(responder), ProcessState::Running);
        sim.set_default_link_quality(None);
        sim.run_until(SimTime::from_secs(8));
        assert!(pongs.get() > 0, "healed default link carries traffic again");
    }

    #[test]
    fn persistent_crash_defeats_respawn() {
        let mut sim: Sim<Msg> = Sim::new(12);
        let p = sim.spawn("victim", || Box::new(Responder));
        sim.set_persistent_crash(p);
        sim.kill(p);
        sim.respawn_after(SimDuration::from_secs(1), p);
        sim.run();
        assert_eq!(sim.state(p), ProcessState::Crashed, "re-killed on respawn");
        sim.respawn_after(SimDuration::from_secs(1), p);
        sim.run();
        assert_eq!(sim.state(p), ProcessState::Crashed, "and again");
    }

    #[test]
    fn per_process_rng_streams_are_stable() {
        struct RngUser {
            out: std::rc::Rc<std::cell::Cell<u64>>,
        }
        impl Actor<Msg> for RngUser {
            fn on_event(&mut self, ev: Event<Msg>, ctx: &mut Context<'_, Msg>) {
                if matches!(ev, Event::Start) {
                    self.out.set(ctx.rng().next_u64());
                }
            }
        }
        let draw = |seed: u64| {
            let out = std::rc::Rc::new(std::cell::Cell::new(0));
            let o = out.clone();
            let mut sim: Sim<Msg> = Sim::new(seed);
            sim.spawn("r", move || Box::new(RngUser { out: o.clone() }));
            sim.run();
            out.get()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
    }
}
