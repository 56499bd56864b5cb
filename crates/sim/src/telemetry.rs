//! Recovery-episode telemetry: a metrics registry and a structured event
//! stream.
//!
//! The paper's argument is built on *measured* recovery time (§4.1, Tables
//! 1–4), so the pipeline that produces those numbers deserves first-class,
//! always-on instrumentation. This module provides the sink the rest of the
//! workspace records into:
//!
//! - **counters** (monotonic `u64`, optionally labelled per component),
//! - **gauges** (last-write-wins `f64`),
//! - **fixed-bucket duration histograms** over [`SimDuration`] with exact
//!   running moments ([`DurationHistogram`]),
//! - an **episode-event stream** ([`EpisodeEvent`]) recording each recovery
//!   episode's lifecycle: injected → suspected → planned → merged →
//!   restarting → ready → cured / quarantined, with cause attribution
//!   carried through LCA merge promotion.
//!
//! Nothing writes the episode stream directly: [`Registry::record`] folds
//! the trace's typed [`Mark`]s into it, and [`crate::Sim`] hands its registry
//! every mark the trace receives. Only an injection has its own entry point
//! ([`Registry::record_injected`]): no mark carries its fault kind.
//!
//! The fold performs the §4.1 bookkeeping online: an injection opens a
//! per-component timer, restarts track the (possibly merged) restart set,
//! and an episode's recovery time runs from injection to the *last* `ready:`
//! of the *final* restart set, or to the cure if REC confirms it first.
//! `mercury::measure::measure_recovery` always waits for that `ready:`, so
//! the two differ on such cures (DESIGN.md §10, "§4.1 semantics, online").
//!
//! A disabled registry ([`Registry::disabled`]) is a pure no-op sink: every
//! recording method returns before formatting or allocating anything, so
//! instrumented hot paths cost one branch when telemetry is off.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::hash::FxHashMap;
use crate::intern::{intern, CompId};
use crate::stats::{Histogram, OnlineStats};
use crate::time::{SimDuration, SimTime};
use crate::trace::Mark;
use crate::vclock::VectorClock;

/// Default bucket range for recovery-time histograms: 0–60 s in 2 s steps,
/// wide enough for every Table 1–4 value with room for escalated episodes.
const RECOVERY_BUCKETS: (f64, f64, usize) = (0.0, 60.0, 30);

/// Default bucket range for message-latency histograms (FD ping RTT):
/// 0–1 s in 25 ms steps.
pub const LATENCY_BUCKETS: (f64, f64, usize) = (0.0, 1.0, 40);

/// Lifecycle stage of one [`EpisodeEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EpisodeStage {
    /// A fault was injected into the component (experiment ground truth).
    Injected,
    /// The failure detector convicted the component.
    Suspected,
    /// The recoverer planned a restart episode targeting a cell.
    Planned,
    /// The episode was absorbed into another by promotion to the LCA.
    Merged,
    /// The restart of the episode's cell was issued.
    Restarting,
    /// Every member of the episode's restart set reported ready.
    Ready,
    /// The cure was confirmed and the episode closed.
    Cured,
    /// The restart policy gave up and quarantined the component.
    Quarantined,
    /// Admission control parked the restart request in the deferral queue
    /// (it will run later, when recovery capacity frees up).
    Deferred,
    /// Admission control dropped the restart request entirely (a duplicate
    /// of an already-queued or in-flight request under overload).
    Shed,
}

impl EpisodeStage {
    /// Stable lowercase name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            EpisodeStage::Injected => "injected",
            EpisodeStage::Suspected => "suspected",
            EpisodeStage::Planned => "planned",
            EpisodeStage::Merged => "merged",
            EpisodeStage::Restarting => "restarting",
            EpisodeStage::Ready => "ready",
            EpisodeStage::Cured => "cured",
            EpisodeStage::Quarantined => "quarantined",
            EpisodeStage::Deferred => "deferred",
            EpisodeStage::Shed => "shed",
        }
    }
}

/// One entry in the episode-event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeEvent {
    /// When the event happened (virtual time).
    pub at: SimTime,
    /// The component (or episode owner) the event is about.
    pub component: String,
    /// The lifecycle stage reached.
    pub stage: EpisodeStage,
    /// Free-form attribution detail: restart set, origins, attempt, cause.
    pub detail: String,
}

/// A fixed-bucket histogram over [`SimDuration`] paired with exact running
/// moments, so exporters can report both a mean and a distribution.
#[derive(Debug, Clone)]
pub struct DurationHistogram {
    stats: OnlineStats,
    histogram: Histogram,
}

impl DurationHistogram {
    /// An empty histogram with `buckets` equal-width buckets spanning
    /// `[lo_s, hi_s)` seconds.
    pub fn new(lo_s: f64, hi_s: f64, buckets: usize) -> DurationHistogram {
        DurationHistogram {
            stats: OnlineStats::new(),
            histogram: Histogram::new(lo_s, hi_s, buckets),
        }
    }

    /// Records one duration.
    pub fn observe(&mut self, d: SimDuration) {
        let secs = d.as_secs_f64();
        self.stats.push(secs);
        self.histogram.add(secs);
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Mean of the recorded durations, in seconds (0 when empty).
    pub fn mean_s(&self) -> f64 {
        if self.stats.count() == 0 {
            0.0
        } else {
            self.stats.mean()
        }
    }

    /// The exact running moments.
    pub fn stats(&self) -> &OnlineStats {
        &self.stats
    }

    /// The bucketed distribution.
    pub fn histogram(&self) -> &Histogram {
        &self.histogram
    }
}

/// Metric identity: a static metric name plus an optional label (the
/// component, interned; [`CompId::EMPTY`] for unlabelled metrics). Hot-path lookups hash two words instead of a `String`;
/// exporters re-sort by resolved name so output order never depends on
/// interning order.
type MetricKey = (&'static str, CompId);

/// A metric map's entries resolved and sorted by `(name, label)` — the
/// exact order the old `BTreeMap<(&str, String), _>` representation
/// iterated in, which the exporters' byte-level goldens lock.
fn sorted_metrics<V>(map: &FxHashMap<MetricKey, V>) -> Vec<(&'static str, &'static str, &V)> {
    let mut rows: Vec<_> = map
        .iter()
        .map(|(&(name, label), v)| (name, label.resolve(), v))
        .collect();
    rows.sort_unstable_by_key(|&(name, label, _)| (name, label));
    rows
}

/// An in-flight episode the registry is timing (mirrors the REC's view).
#[derive(Debug, Clone, Default)]
struct OpenEpisode {
    /// Suspected components this episode answers (merged origins included).
    origins: BTreeSet<String>,
    /// The current restart set (every component the cell restart touches).
    components: BTreeSet<String>,
    /// When the latest restart of this episode was issued.
    restarted_at: SimTime,
    /// Members that reported ready at or after `restarted_at`.
    ready: BTreeSet<String>,
    /// Set when `ready` covers `components`: the episode's recovery end.
    completed_at: Option<SimTime>,
}

/// The telemetry sink: counters, gauges, duration histograms, and the
/// episode-event stream, all with deterministic (sorted) iteration order.
///
/// Cloning a registry snapshots it; the clone shares nothing with the
/// original.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    enabled: bool,
    counters: FxHashMap<MetricKey, u64>,
    gauges: FxHashMap<MetricKey, f64>,
    durations: FxHashMap<MetricKey, DurationHistogram>,
    events: Vec<EpisodeEvent>,
    /// One vector-clock snapshot per entry of `events`, in lock step. Kept
    /// beside the stream (rather than inside [`EpisodeEvent`]) so the JSON
    /// export and every existing consumer of `events()` stay byte-identical.
    clocks: Vec<VectorClock>,
    /// The live clock of each telemetry key (component or episode owner);
    /// recording an event ticks the key, protocol edges join clocks.
    procs: FxHashMap<CompId, VectorClock>,
    injections: BTreeMap<String, SimTime>,
    open: BTreeMap<String, OpenEpisode>,
    /// Origins absorbed by an LCA merge before the absorbing episode's own
    /// restart was recorded; folded in by its next `restart:`.
    pending_merges: BTreeMap<String, BTreeSet<String>>,
    /// `merge:` marks since the last `restart:`, as `(from, into)` in the
    /// order they were written: the absorbed origins of the decision the
    /// next `restart:` applies.
    absorbed: Vec<(CompId, CompId)>,
    /// The latest `giveup:`'s component and reason, which the
    /// `quarantine:` written after it records as its detail.
    give_up: Option<(CompId, String)>,
    /// When the latest cure closed an episode, and that episode's origins:
    /// the other origins' `cured:` marks at that instant add nothing.
    last_cure: Option<(SimTime, BTreeSet<String>)>,
}

impl Registry {
    /// A registry that records everything.
    pub fn new() -> Registry {
        Registry {
            enabled: true,
            ..Registry::default()
        }
    }

    /// A no-op sink: every `record`/`incr`/`observe` call returns
    /// immediately, without formatting or allocating.
    pub fn disabled() -> Registry {
        Registry::default()
    }

    /// Whether this registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    // ------------------------------------------------------------ metrics --

    /// Increments the unlabelled counter `name`.
    pub fn incr(&mut self, name: &'static str) {
        self.incr_by(name, CompId::EMPTY, 1);
    }

    /// Increments the counter `name` labelled with `label`.
    pub fn incr_labeled(&mut self, name: &'static str, label: impl Into<CompId>) {
        self.incr_by(name, label, 1);
    }

    /// Adds `by` to the counter `(name, label)`.
    ///
    /// A label is a component name, as text or as the [`CompId`] it interns
    /// to; both name one series. A caller that holds the id saves the
    /// intern pool's lock and hash.
    pub fn incr_by(&mut self, name: &'static str, label: impl Into<CompId>, by: u64) {
        if !self.enabled {
            return;
        }
        *self.counters.entry((name, label.into())).or_insert(0) += by;
    }

    /// Current value of the counter `(name, label)` (0 if never touched).
    pub fn counter(&self, name: &'static str, label: &str) -> u64 {
        self.counters
            .get(&(name, intern(label)))
            .copied()
            .unwrap_or(0)
    }

    /// Sets the gauge `(name, label)` to `value` (last write wins).
    pub fn set_gauge(&mut self, name: &'static str, label: impl Into<CompId>, value: f64) {
        if !self.enabled {
            return;
        }
        self.gauges.insert((name, label.into()), value);
    }

    /// Records `d` into the histogram `(name, label)`, creating it with the
    /// `(lo_s, hi_s, buckets)` spec on first use.
    pub fn observe(
        &mut self,
        name: &'static str,
        label: impl Into<CompId>,
        d: SimDuration,
        spec: (f64, f64, usize),
    ) {
        if !self.enabled {
            return;
        }
        self.durations
            .entry((name, label.into()))
            .or_insert_with(|| DurationHistogram::new(spec.0, spec.1, spec.2))
            .observe(d);
    }

    /// The histogram `(name, label)`, if anything was recorded into it.
    pub fn duration(&self, name: &'static str, label: &str) -> Option<&DurationHistogram> {
        self.durations.get(&(name, intern(label)))
    }

    /// All duration histograms, in sorted `(name, label)` order.
    pub fn durations(&self) -> impl Iterator<Item = (&'static str, &str, &DurationHistogram)> {
        sorted_metrics(&self.durations).into_iter()
    }

    /// All counters, in sorted `(name, label)` order.
    pub fn counters(&self) -> impl Iterator<Item = ((&'static str, &str), u64)> {
        sorted_metrics(&self.counters)
            .into_iter()
            .map(|(name, label, v)| ((name, label), *v))
    }

    /// The episode-event stream, in recording order.
    pub fn events(&self) -> &[EpisodeEvent] {
        &self.events
    }

    /// The vector-clock snapshot stamped on each event, in lock step with
    /// [`Registry::events`].
    pub fn clocks(&self) -> &[VectorClock] {
        &self.clocks
    }

    // ----------------------------------------------------------- episodes --

    /// Folds `from`'s live clock into `into`'s — a causal edge between two
    /// telemetry keys. A no-op if `from` has never recorded anything.
    fn clock_join(&mut self, into: &str, from: &str) {
        if into == from {
            return;
        }
        let Some(src) = self.procs.get(&intern(from)).cloned() else {
            return;
        };
        self.procs.entry(intern(into)).or_default().join(&src);
    }

    /// Appends one episode event: ticks the key's vector clock and stamps
    /// the event with the snapshot.
    fn record_stage(&mut self, at: SimTime, component: &str, stage: EpisodeStage, detail: &str) {
        let id = intern(component);
        let clock = {
            let proc_clock = self.procs.entry(id).or_default();
            proc_clock.tick_id(id);
            proc_clock.clone()
        };
        self.events.push(EpisodeEvent {
            at,
            component: component.to_string(),
            stage,
            detail: detail.to_string(),
        });
        self.clocks.push(clock);
    }

    /// A fault of `kind` was injected into `component`: opens its §4.1
    /// recovery timer (the earliest un-recovered injection wins if faults
    /// pile up).
    pub fn record_injected(&mut self, at: SimTime, component: &str, kind: &str) {
        if !self.enabled {
            return;
        }
        self.incr_labeled("faults_injected", component);
        self.record_stage(at, component, EpisodeStage::Injected, kind);
        self.injections.entry(component.to_string()).or_insert(at);
    }

    /// Folds one recovery-protocol fact, written at `at`, into the episode
    /// stream, the episode counters, the vector clocks and the
    /// `recovery_time` histograms. Marks outside the episode lifecycle
    /// (`stale:`, `alive:`, `rejuvenate:`, the crash causes) add nothing.
    pub fn record(&mut self, at: SimTime, mark: &Mark) {
        if !self.enabled {
            return;
        }
        match *mark {
            // The fault kind is the injector's ground truth, not a protocol
            // fact: no mark carries it, so `record_injected` records it.
            Mark::Stage(EpisodeStage::Injected, _) => {}
            Mark::Stage(EpisodeStage::Suspected, c) => {
                self.incr_labeled("fd_suspicions", c);
                self.record_stage(at, c.resolve(), EpisodeStage::Suspected, "");
            }
            // Deferral keeps the injection timer open: the delay counts
            // against recovery time.
            Mark::Stage(EpisodeStage::Deferred, c) => {
                let c = c.resolve();
                self.incr("admission_deferred");
                self.incr_labeled("admission_deferred_component", c);
                self.record_stage(at, c, EpisodeStage::Deferred, "admission-capacity");
            }
            // A shed request is a duplicate of one already queued.
            Mark::Stage(EpisodeStage::Shed, c) => {
                self.incr("admission_shed");
                self.incr_labeled("admission_shed_component", c);
                self.record_stage(at, c.resolve(), EpisodeStage::Shed, "duplicate-of-deferred");
            }
            Mark::Stage(EpisodeStage::Quarantined, c) => self.quarantined(at, c),
            Mark::Stage(..) => {}
            Mark::Merge { from, into } => self.merged(at, from, into),
            Mark::Restart {
                owner,
                attempt,
                ref set,
            } => self.restarting(at, owner, attempt, set),
            Mark::GiveUp { comp, ref reason } => self.give_up = Some((comp, reason.clone())),
            Mark::Ready(c) => self.component_ready(at, c.resolve()),
            Mark::Cured(origin) => self.cured(at, origin.resolve()),
            Mark::Stale(_)
            | Mark::Alive(_)
            | Mark::Rejuvenate(_)
            | Mark::InducedCrash(_)
            | Mark::AgingCrash(_)
            | Mark::PoisonCrash(_) => {}
        }
    }

    /// `merge:{from}->{into}`: episode `from` was absorbed into `into` by
    /// LCA promotion.
    fn merged(&mut self, at: SimTime, from: CompId, into: CompId) {
        self.absorbed.push((from, into));
        let (from, into) = (from.resolve(), into.resolve());
        self.incr("episodes_merged");
        self.record_stage(at, from, EpisodeStage::Merged, &format!("into={into}"));
        // The absorbing episode's next event happens after the merge.
        self.clock_join(into, from);
        // Retire the absorbed episode and re-attribute its origins to the
        // absorbing one (directly if it is already open, else via the
        // pending-merge stash its next restart drains).
        let mut origins: BTreeSet<String> = BTreeSet::new();
        origins.insert(from.to_string());
        if let Some(absorbed) = self.open.remove(from) {
            origins.extend(absorbed.origins);
        }
        if let Some(owner) = self.open.get_mut(into) {
            owner.origins.extend(origins);
        } else {
            self.pending_merges
                .entry(into.to_string())
                .or_default()
                .extend(origins);
        }
    }

    /// `restart:{owner}:{attempt}:{set}`: the recoverer planned `owner`'s
    /// episode, for `owner` and the origins the `merge:` marks before it
    /// absorbed, and issued the restart of every component in `set`.
    fn restarting(&mut self, at: SimTime, owner: CompId, attempt: u32, set: &[CompId]) {
        let mut origins = vec![owner.resolve()];
        origins.extend(
            self.absorbed
                .drain(..)
                .filter(|&(_, into)| into == owner)
                .map(|(from, _)| from.resolve()),
        );
        let owner = owner.resolve();
        let components: Vec<&str> = set.iter().map(|c| c.resolve()).collect();

        self.incr("episodes_planned");
        // The plan (and so the restart) happens after every suspicion it
        // answers; every member of the restart set reboots after (because
        // of) the restart.
        for origin in &origins {
            self.clock_join(owner, origin);
        }
        let detail = format!("origins={}", origins.join("+"));
        self.record_stage(at, owner, EpisodeStage::Planned, &detail);

        self.incr("restarts_issued");
        for &c in &components {
            self.incr_labeled("component_restarts", c);
        }
        let detail = format!("attempt={attempt} set={}", components.join("+"));
        self.record_stage(at, owner, EpisodeStage::Restarting, &detail);
        for c in &components {
            self.clock_join(c, owner);
        }
        let episode = self.open.entry(owner.to_string()).or_default();
        episode
            .origins
            .extend(origins.iter().map(|o| o.to_string()));
        if let Some(merged) = self.pending_merges.remove(owner) {
            episode.origins.extend(merged);
        }
        episode.components = components.iter().map(|c| c.to_string()).collect();
        episode.restarted_at = at;
        episode.ready.clear();
        episode.completed_at = None;
    }

    /// `ready:{component}`: when this completes an episode's restart set,
    /// the episode's recovery end is *this* instant.
    fn component_ready(&mut self, at: SimTime, component: &str) {
        // The member coming up is a local event on its own clock, even when
        // it completes no episode.
        let id = intern(component);
        self.procs.entry(id).or_default().tick_id(id);
        let mut completed: Vec<(String, String, Vec<String>)> = Vec::new();
        for (owner, episode) in self.open.iter_mut() {
            if episode.completed_at.is_some()
                || !episode.components.contains(component)
                || at < episode.restarted_at
            {
                continue;
            }
            episode.ready.insert(component.to_string());
            if episode.ready.len() == episode.components.len() {
                episode.completed_at = Some(at);
                let members: Vec<String> = episode.components.iter().cloned().collect();
                completed.push((owner.clone(), format!("set={}", members.join("+")), members));
            }
        }
        for (owner, detail, members) in completed {
            // The episode is ready only once every member is: the Ready
            // event causally follows each member's own ready tick.
            for member in &members {
                self.clock_join(&owner, member);
            }
            self.record_stage(at, &owner, EpisodeStage::Ready, &detail);
        }
    }

    /// `cured:{origin}`: the episode answering `origin` was confirmed
    /// cured. REC writes one mark per origin of the episode, all at one
    /// instant, and the episode is one `Cured` event: the first of them
    /// closes the open episode that holds `origin` and records one
    /// recovery-time observation per injected origin, measured from the
    /// injection to the instant the final restart set finished booting, or
    /// to the cure if that came first.
    fn cured(&mut self, at: SimTime, origin: &str) {
        let closed_now =
            |(t, origins): &(SimTime, BTreeSet<String>)| *t == at && origins.contains(origin);
        let owner = if self.open.contains_key(origin) {
            Some(origin.to_string())
        } else if self.last_cure.as_ref().is_some_and(closed_now) {
            return;
        } else {
            self.open
                .iter()
                .find(|(_, episode)| episode.origins.contains(origin))
                .map(|(owner, _)| owner.clone())
        };
        self.incr("episodes_cured");
        let Some((owner, episode)) = owner.and_then(|owner| self.open.remove_entry(&owner)) else {
            self.record_stage(at, origin, EpisodeStage::Cured, "");
            return;
        };
        let end = episode.completed_at.unwrap_or(at);
        let mut timed = Vec::new();
        for origin in &episode.origins {
            if let Some(injected_at) = self.injections.remove(origin) {
                let d = end.saturating_since(injected_at);
                self.observe("recovery_time", origin, d, RECOVERY_BUCKETS);
                timed.push(format!("{origin}={:.3}s", d.as_secs_f64()));
            }
        }
        self.record_stage(at, &owner, EpisodeStage::Cured, &timed.join(" "));
        self.last_cure = Some((at, episode.origins));
    }

    /// `quarantine:{component}`: the restart policy gave up on
    /// `component`, for the reason its `giveup:` gave. The episode ends
    /// unrecovered and its origins' timers are discarded.
    fn quarantined(&mut self, at: SimTime, component: CompId) {
        let reason = match self.give_up.take() {
            Some((comp, reason)) if comp == component => reason,
            _ => String::new(),
        };
        let component = component.resolve();
        self.incr("episodes_gaveup");
        if let Some(episode) = self.open.remove(component) {
            for origin in &episode.origins {
                self.injections.remove(origin);
            }
        }
        self.injections.remove(component);
        self.record_stage(at, component, EpisodeStage::Quarantined, &reason);
    }

    // ---------------------------------------------------------- exporters --

    /// Serializes the registry as a single deterministic JSON object with
    /// `counters`, `gauges`, `durations` and `events` members.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"counters\":{");
        for (i, (name, label, v)) in sorted_metrics(&self.counters).into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{v}", json_string(&metric_id(name, label)));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, label, v)) in sorted_metrics(&self.gauges).into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{}",
                json_string(&metric_id(name, label)),
                json_f64(*v)
            );
        }
        out.push_str("},\"durations\":{");
        for (i, (name, label, h)) in sorted_metrics(&self.durations).into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"count\":{},\"mean_s\":{},\"min_s\":{},\"max_s\":{},\"underflow\":{},\"overflow\":{},\"buckets\":[",
                json_string(&metric_id(name, label)),
                h.count(),
                json_f64(h.mean_s()),
                json_f64(if h.count() == 0 { 0.0 } else { h.stats().min() }),
                json_f64(if h.count() == 0 { 0.0 } else { h.stats().max() }),
                h.histogram().underflow(),
                h.histogram().overflow(),
            );
            for (j, b) in h.histogram().buckets().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("]}");
        }
        out.push_str("},\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"t_s\":{},\"component\":{},\"stage\":{},\"detail\":{}}}",
                json_f64(e.at.as_secs_f64()),
                json_string(&e.component),
                json_string(e.stage.name()),
                json_string(&e.detail),
            );
        }
        out.push_str("]}");
        out
    }

    /// Serializes the metrics (not the event stream) in the Prometheus text
    /// exposition format, with every metric prefixed `rr_`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last = "";
        for (name, label, v) in sorted_metrics(&self.counters) {
            if name != last {
                let _ = writeln!(out, "# TYPE rr_{name} counter");
                last = name;
            }
            let _ = writeln!(out, "rr_{name}{} {v}", prom_label(label));
        }
        last = "";
        for (name, label, v) in sorted_metrics(&self.gauges) {
            if name != last {
                let _ = writeln!(out, "# TYPE rr_{name} gauge");
                last = name;
            }
            let _ = writeln!(out, "rr_{name}{} {v}", prom_label(label));
        }
        last = "";
        for (name, label, h) in sorted_metrics(&self.durations) {
            if name != last {
                let _ = writeln!(out, "# TYPE rr_{name}_seconds histogram");
                last = name;
            }
            let hist = h.histogram();
            let lo = hist.lo();
            let width = (hist.hi() - hist.lo()) / hist.buckets().len() as f64;
            let mut cumulative = hist.underflow();
            for (i, b) in hist.buckets().iter().enumerate() {
                cumulative += b;
                let le = lo + width * (i as f64 + 1.0);
                let _ = writeln!(
                    out,
                    "rr_{name}_seconds_bucket{} {cumulative}",
                    prom_bucket_label(label, &format!("{le}")),
                );
            }
            let _ = writeln!(
                out,
                "rr_{name}_seconds_bucket{} {}",
                prom_bucket_label(label, "+Inf"),
                h.count(),
            );
            let _ = writeln!(
                out,
                "rr_{name}_seconds_sum{} {}",
                prom_label(label),
                h.mean_s() * h.count() as f64,
            );
            let _ = writeln!(
                out,
                "rr_{name}_seconds_count{} {}",
                prom_label(label),
                h.count()
            );
        }
        out
    }
}

/// `name` or `name{label}`, the flat key both exporters use.
fn metric_id(name: &str, label: &str) -> String {
    if label.is_empty() {
        name.to_string()
    } else {
        format!("{name}{{{label}}}")
    }
}

/// `{component="x"}` or the empty string.
fn prom_label(label: &str) -> String {
    if label.is_empty() {
        String::new()
    } else {
        format!("{{component=\"{label}\"}}")
    }
}

/// Bucket label set: component (if any) plus `le`.
fn prom_bucket_label(label: &str, le: &str) -> String {
    if label.is_empty() {
        format!("{{le=\"{le}\"}}")
    } else {
        format!("{{component=\"{label}\",le=\"{le}\"}}")
    }
}

/// Escapes `s` as a JSON string literal, quotes included. The one escaper
/// every JSON writer in the workspace uses.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number (JSON has no NaN/Inf; those become 0).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    /// Folds each protocol label, in order, at its time.
    fn fold(r: &mut Registry, marks: &[(f64, &str)]) {
        for &(at, label) in marks {
            let mark: Mark = label.parse().expect("a protocol label");
            r.record(t(at), &mark);
        }
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let mut r = Registry::disabled();
        r.incr("x");
        r.incr_labeled("y", "rtu");
        r.set_gauge("g", "", 1.0);
        r.observe("d", "", SimDuration::from_secs(1), RECOVERY_BUCKETS);
        r.record_injected(t(1.0), "rtu", "kill");
        fold(
            &mut r,
            &[
                (2.0, "restart:rtu:1:rtu"),
                (3.0, "ready:rtu"),
                (5.0, "cured:rtu"),
            ],
        );
        assert_eq!(r.counter("x", ""), 0);
        assert!(r.events().is_empty());
        assert_eq!(
            r.to_json(),
            "{\"counters\":{},\"gauges\":{},\"durations\":{},\"events\":[]}"
        );
    }

    /// A label given as text and one given as its `CompId` name one series,
    /// and a registry filled either way exports the same bytes.
    #[test]
    fn text_and_id_labels_are_one_series() {
        let fill = |by_id: bool| {
            let mut r = Registry::new();
            for (name, label) in [("pings", "rtu"), ("pings", "ses"), ("pings", "rtu")] {
                if by_id {
                    r.incr_by(name, intern(label), 2);
                    r.incr_labeled(name, intern(label));
                    r.set_gauge("aging", intern(label), 0.5);
                    r.observe(
                        "rtt",
                        intern(label),
                        SimDuration::from_millis(4),
                        LATENCY_BUCKETS,
                    );
                } else {
                    r.incr_by(name, label, 2);
                    r.incr_labeled(name, label);
                    r.set_gauge("aging", label, 0.5);
                    r.observe("rtt", label, SimDuration::from_millis(4), LATENCY_BUCKETS);
                }
            }
            r
        };
        let (by_text, by_id) = (fill(false), fill(true));
        let mut mixed = fill(false);
        mixed.incr_labeled("pings", intern("rtu"));
        mixed.incr_labeled("pings", "rtu");
        assert_eq!(mixed.counter("pings", "rtu"), 8);
        assert_eq!(mixed.counters().count(), 2, "one series per label");
        assert_eq!(by_id.counter("pings", "rtu"), 6);
        assert_eq!(
            by_id.duration("rtt", "rtu").map(DurationHistogram::count),
            Some(2)
        );
        assert_eq!(by_text.to_json(), by_id.to_json());
        assert_eq!(by_text.to_prometheus(), by_id.to_prometheus());
    }

    #[test]
    fn recovery_time_spans_injection_to_last_ready() {
        let mut r = Registry::new();
        r.record_injected(t(10.0), "rtu", "kill");
        fold(
            &mut r,
            &[
                (11.0, "detect:rtu"),
                (12.0, "restart:rtu:1:rtu"),
                (14.5, "ready:rtu"),
                // Cure confirmation lands later; the measured span still
                // ends at the ready instant, matching measure_recovery.
                (18.0, "cured:rtu"),
            ],
        );
        let h = r.duration("recovery_time", "rtu").expect("observed");
        assert_eq!(h.count(), 1);
        assert!((h.mean_s() - 4.5).abs() < 1e-9, "mean {}", h.mean_s());
    }

    #[test]
    fn escalated_restart_resets_the_ready_set() {
        let mut r = Registry::new();
        r.record_injected(t(0.0), "fedr", "kill");
        fold(
            &mut r,
            &[
                (1.0, "restart:fedr:1:fedr"),
                (2.0, "ready:fedr"),
                // Not cured: escalation restarts a bigger cell.
                (5.0, "restart:fedr:2:fedr+pbcom"),
                (6.0, "ready:fedr"),
                (7.0, "ready:pbcom"),
                (9.0, "cured:fedr"),
            ],
        );
        let h = r.duration("recovery_time", "fedr").expect("observed");
        assert!((h.mean_s() - 7.0).abs() < 1e-9, "mean {}", h.mean_s());
        assert_eq!(r.counter("restarts_issued", ""), 2);
        assert_eq!(r.counter("component_restarts", "pbcom"), 1);
    }

    #[test]
    fn merged_episode_attributes_both_origins_and_cures_once() {
        let mut r = Registry::new();
        r.record_injected(t(0.0), "fedr", "kill");
        r.record_injected(t(0.5), "pbcom", "kill");
        fold(
            &mut r,
            &[
                (1.0, "restart:fedr:1:fedr"),
                (1.5, "merge:fedr->pbcom"),
                (1.5, "restart:pbcom:1:fedr+pbcom"),
                (3.0, "ready:fedr"),
                (4.0, "ready:pbcom"),
                // REC marks every origin of the cured episode.
                (6.0, "cured:fedr"),
                (6.0, "cured:pbcom"),
            ],
        );
        let fedr = r.duration("recovery_time", "fedr").expect("fedr timed");
        let pbcom = r.duration("recovery_time", "pbcom").expect("pbcom timed");
        assert!((fedr.mean_s() - 4.0).abs() < 1e-9);
        assert!((pbcom.mean_s() - 3.5).abs() < 1e-9);
        assert_eq!(r.counter("episodes_merged", ""), 1);
        assert_eq!(r.counter("episodes_cured", ""), 1);
    }

    #[test]
    fn quarantine_discards_the_timer() {
        let mut r = Registry::new();
        r.record_injected(t(0.0), "ses", "kill");
        fold(
            &mut r,
            &[
                (1.0, "restart:ses:1:ses"),
                (2.0, "giveup:ses:escalation-limit"),
                (2.0, "quarantine:ses"),
            ],
        );
        assert!(r.duration("recovery_time", "ses").is_none());
        assert_eq!(r.counter("episodes_gaveup", ""), 1);
        let last = r.events().last().expect("quarantined");
        assert_eq!(last.stage, EpisodeStage::Quarantined);
        assert_eq!(last.detail, "escalation-limit");
        // A later cure of an unknown episode must not panic or observe.
        fold(&mut r, &[(3.0, "cured:ses")]);
        assert!(r.duration("recovery_time", "ses").is_none());
    }

    #[test]
    fn defer_keeps_the_timer_open_and_shed_counts() {
        let mut r = Registry::new();
        r.record_injected(t(0.0), "rtu", "kill");
        fold(
            &mut r,
            &[
                (1.0, "defer:rtu"),
                (2.0, "shed:rtu"),
                // The deferred request eventually runs; recovery time still
                // spans from the injection, so deferral delay is charged to
                // MTTR.
                (10.0, "restart:rtu:0:rtu"),
                (12.0, "ready:rtu"),
                (14.0, "cured:rtu"),
            ],
        );
        assert_eq!(r.counter("admission_deferred", ""), 1);
        assert_eq!(r.counter("admission_shed", ""), 1);
        assert_eq!(r.counter("admission_shed_component", "rtu"), 1);
        let h = r.duration("recovery_time", "rtu").expect("observed");
        assert!((h.mean_s() - 12.0).abs() < 1e-9, "mean {}", h.mean_s());
        let stages: Vec<_> = r.events().iter().map(|e| e.stage).collect();
        assert!(stages.contains(&EpisodeStage::Deferred));
        assert!(stages.contains(&EpisodeStage::Shed));
        let json = r.to_json();
        assert!(json.contains("\"stage\":\"deferred\""), "{json}");
        assert!(json.contains("\"stage\":\"shed\""), "{json}");
    }

    #[test]
    fn exporters_are_deterministic_and_well_formed() {
        let mut r = Registry::new();
        r.incr_labeled("component_restarts", "rtu");
        r.set_gauge("availability", "", 0.993);
        r.observe(
            "fd_ping_latency",
            "rtu",
            SimDuration::from_millis(12),
            LATENCY_BUCKETS,
        );
        r.record_stage(t(1.0), "rtu", EpisodeStage::Suspected, "a \"quote\"");
        let json = r.to_json();
        assert!(json.contains("\"component_restarts{rtu}\":1"), "{json}");
        assert!(json.contains("\\\"quote\\\""), "{json}");
        assert_eq!(json, r.clone().to_json());
        let prom = r.to_prometheus();
        assert!(
            prom.contains("# TYPE rr_component_restarts counter"),
            "{prom}"
        );
        assert!(
            prom.contains("rr_fd_ping_latency_seconds_count{component=\"rtu\"} 1"),
            "{prom}"
        );
    }
}
