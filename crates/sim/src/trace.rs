//! Structured event log.
//!
//! Every lifecycle transition (spawn, crash, hang, restart) and every
//! domain-level mark emitted by a component is appended to the [`Trace`]. The
//! experiment harness measures recovery intervals exactly the way the paper
//! does (§4.1): "We log the time when the signal is sent; once the component
//! determines it is functionally ready, it logs a timestamped message. The
//! difference between these two times is what we consider to be the recovery
//! time."
//!
//! A mark is either a fact of the recovery protocol, held as a typed
//! [`Mark`], or free text. Text that parses as a protocol fact is stored as
//! one, so a protocol label is never kept as free text.

use std::fmt;
use std::str::FromStr;

use crate::engine::ProcessId;
use crate::intern::{intern, CompId};
use crate::telemetry::EpisodeStage;
use crate::time::SimTime;

/// The kind of a trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// A process was created.
    Spawned,
    /// A process crashed (fail-silent, state lost).
    Crashed,
    /// A process hung (fail-silent, state resident).
    Hung,
    /// A process became a zombie (answers pings, does no work).
    Zombified,
    /// A process was restarted from its factory.
    Restarted,
    /// An event addressed to a dead process was dropped.
    Dropped,
    /// A domain-level mark: a protocol fact (`ready:ses`, `detect:rtu`) or
    /// free text (`telemetry:opal:3`).
    Mark,
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TraceKind::Spawned => "spawned",
            TraceKind::Crashed => "crashed",
            TraceKind::Hung => "hung",
            TraceKind::Zombified => "zombified",
            TraceKind::Restarted => "restarted",
            TraceKind::Dropped => "dropped",
            TraceKind::Mark => "mark",
        };
        f.write_str(s)
    }
}

/// A fact of the recovery protocol, as the trace records it.
///
/// `Display` renders the label (`restart:rtu:0:rtu`) and `FromStr` parses
/// exactly what `Display` renders. DESIGN.md §10 tabulates every variant
/// with its writer and readers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mark {
    /// `inject:`, `detect:`, `quarantine:`, `defer:` or `shed:` and a
    /// component: the component reached [`EpisodeStage::Injected`],
    /// `Suspected`, `Quarantined`, `Deferred` or `Shed`, the stage the
    /// episode stream records the same fact under. No other stage is
    /// written this way.
    Stage(EpisodeStage, CompId),
    /// `merge:{from}->{into}`: episode `from` was absorbed into `into`
    /// ([`EpisodeStage::Merged`]).
    Merge {
        /// The absorbed episode.
        from: CompId,
        /// The episode that absorbed it.
        into: CompId,
    },
    /// `restart:{owner}:{attempt}:{a+b+…}`: REC restarts `set` for `owner`'s
    /// episode ([`EpisodeStage::Restarting`]).
    Restart {
        /// The episode's owner.
        owner: CompId,
        /// Escalations before this restart.
        attempt: u32,
        /// Every component the restart reboots: the recovery group.
        set: Vec<CompId>,
    },
    /// `giveup:{comp}:{reason}`: the restart policy gave up on `comp`.
    GiveUp {
        /// The component given up on.
        comp: CompId,
        /// Why, as the policy words it.
        reason: String,
    },
    /// `stale:{comp}`: `comp`'s health beacon is overdue (zombie defense).
    Stale(CompId),
    /// `alive:{comp}`: FD hears again from a component it had missed.
    Alive(CompId),
    /// `cured:{origin}`: the episode answering `origin`'s failure was
    /// confirmed cured.
    Cured(CompId),
    /// `ready:{comp}`: `comp` is functionally ready, the §4.1 end of a
    /// recovery.
    Ready(CompId),
    /// `rejuvenate:{comp}`: REC restarts an aging `comp` before it fails.
    Rejuvenate(CompId),
    /// `induced-crash:{comp}`: an old ses/str fails after servicing a
    /// resync (§4.3).
    InducedCrash(CompId),
    /// `aging-crash:{comp}`: pbcom fails from accumulated session leaks
    /// (§4.2).
    AgingCrash(CompId),
    /// `poison-crash:{comp}`: pbcom fails from a poisoned session (§4.4).
    PoisonCrash(CompId),
}

impl Mark {
    /// The label's tag (its text before the first `:`) and the component the
    /// mark is about (its first field: a merge's absorbed episode, a
    /// restart's owner).
    pub fn head(&self) -> (&'static str, CompId) {
        match *self {
            Mark::Stage(EpisodeStage::Injected, c) => ("inject", c),
            Mark::Stage(EpisodeStage::Suspected, c) => ("detect", c),
            Mark::Stage(EpisodeStage::Quarantined, c) => ("quarantine", c),
            Mark::Stage(EpisodeStage::Deferred, c) => ("defer", c),
            Mark::Stage(EpisodeStage::Shed, c) => ("shed", c),
            Mark::Stage(other, c) => (other.name(), c),
            Mark::Merge { from, .. } => ("merge", from),
            Mark::Restart { owner, .. } => ("restart", owner),
            Mark::GiveUp { comp, .. } => ("giveup", comp),
            Mark::Stale(c) => ("stale", c),
            Mark::Alive(c) => ("alive", c),
            Mark::Cured(c) => ("cured", c),
            Mark::Ready(c) => ("ready", c),
            Mark::Rejuvenate(c) => ("rejuvenate", c),
            Mark::InducedCrash(c) => ("induced-crash", c),
            Mark::AgingCrash(c) => ("aging-crash", c),
            Mark::PoisonCrash(c) => ("poison-crash", c),
        }
    }
}

impl fmt::Display for Mark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (tag, subject) = self.head();
        write!(f, "{tag}:{subject}")?;
        match self {
            Mark::Merge { into, .. } => write!(f, "->{into}"),
            Mark::Restart { attempt, set, .. } => {
                write!(f, ":{attempt}:")?;
                for (i, c) in set.iter().enumerate() {
                    if i > 0 {
                        f.write_str("+")?;
                    }
                    write!(f, "{c}")?;
                }
                Ok(())
            }
            Mark::GiveUp { reason, .. } => write!(f, ":{reason}"),
            _ => Ok(()),
        }
    }
}

impl FromStr for Mark {
    type Err = ();

    /// Parses a protocol label. Fails on free text, and on any text that
    /// [`Display`](fmt::Display) would not render byte for byte.
    fn from_str(label: &str) -> Result<Mark, ()> {
        let (tag, rest) = label.split_once(':').ok_or(())?;
        let stage = |stage| Ok(Mark::Stage(stage, intern(rest)));
        let mark = match tag {
            "inject" => stage(EpisodeStage::Injected),
            "detect" => stage(EpisodeStage::Suspected),
            "quarantine" => stage(EpisodeStage::Quarantined),
            "defer" => stage(EpisodeStage::Deferred),
            "shed" => stage(EpisodeStage::Shed),
            "merge" => rest
                .split_once("->")
                .ok_or(())
                .map(|(from, into)| Mark::Merge {
                    from: intern(from),
                    into: intern(into),
                }),
            "restart" => {
                let mut fields = rest.splitn(3, ':');
                match (fields.next(), fields.next(), fields.next()) {
                    (Some(owner), Some(attempt), Some(set)) => Ok(Mark::Restart {
                        owner: intern(owner),
                        attempt: attempt.parse().map_err(|_| ())?,
                        set: set.split('+').map(intern).collect(),
                    }),
                    _ => Err(()),
                }
            }
            "giveup" => rest
                .split_once(':')
                .ok_or(())
                .map(|(comp, reason)| Mark::GiveUp {
                    comp: intern(comp),
                    reason: reason.to_string(),
                }),
            "stale" => Ok(Mark::Stale(intern(rest))),
            "alive" => Ok(Mark::Alive(intern(rest))),
            "cured" => Ok(Mark::Cured(intern(rest))),
            "ready" => Ok(Mark::Ready(intern(rest))),
            "rejuvenate" => Ok(Mark::Rejuvenate(intern(rest))),
            "induced-crash" => Ok(Mark::InducedCrash(intern(rest))),
            "aging-crash" => Ok(Mark::AgingCrash(intern(rest))),
            "poison-crash" => Ok(Mark::PoisonCrash(intern(rest))),
            _ => Err(()),
        }?;
        (mark.to_string() == label).then_some(mark).ok_or(())
    }
}

/// What a trace record says.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Label {
    /// A process name (lifecycle records) or a mark outside the recovery
    /// protocol.
    Text(String),
    /// A recovery-protocol fact.
    Mark(Mark),
}

impl From<Mark> for Label {
    fn from(mark: Mark) -> Label {
        Label::Mark(mark)
    }
}

impl From<String> for Label {
    /// A protocol fact if the text parses as one, free text otherwise.
    fn from(text: String) -> Label {
        text.parse().map_or(Label::Text(text), Label::Mark)
    }
}

impl From<&str> for Label {
    fn from(text: &str) -> Label {
        Label::from(text.to_string())
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Text(text) => f.write_str(text),
            Label::Mark(mark) => fmt::Display::fmt(mark, f),
        }
    }
}

/// One record in the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// When the event happened.
    pub time: SimTime,
    /// The process it is attributed to, if any.
    pub pid: Option<ProcessId>,
    /// What happened.
    pub kind: TraceKind,
    /// The process name for lifecycle events, the fact or text of a mark.
    pub label: Label,
}

impl TraceEvent {
    /// The protocol fact this record states, if it is a protocol mark.
    pub fn mark(&self) -> Option<&Mark> {
        match &self.label {
            Label::Mark(mark) => Some(mark),
            Label::Text(_) => None,
        }
    }

    /// The text of a lifecycle record or a free-text mark.
    pub fn text(&self) -> Option<&str> {
        match &self.label {
            Label::Text(text) => Some(text),
            Label::Mark(_) => None,
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.time, self.kind, self.label)
    }
}

/// An append-only, queryable log of [`TraceEvent`]s.
///
/// ```
/// use rr_sim::{Sim, SimDuration, TraceKind};
/// let mut sim: Sim<()> = Sim::new(1);
/// sim.mark("experiment-start");
/// assert_eq!(sim.trace().iter().filter(|e| e.kind == TraceKind::Mark).count(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends a record. The label of a [`TraceKind::Mark`] is stored as a
    /// [`Mark`] when it parses as one.
    pub fn record(
        &mut self,
        time: SimTime,
        pid: Option<ProcessId>,
        kind: TraceKind,
        label: impl Into<String>,
    ) {
        let label = label.into();
        let label = match kind {
            TraceKind::Mark => Label::from(label),
            _ => Label::Text(label),
        };
        self.events.push(TraceEvent {
            time,
            pid,
            kind,
            label,
        });
    }

    /// Appends a mark: a protocol fact, or text (parsed as by
    /// [`record`](Self::record)).
    pub fn record_mark(&mut self, time: SimTime, pid: Option<ProcessId>, label: impl Into<Label>) {
        self.events.push(TraceEvent {
            time,
            pid,
            kind: TraceKind::Mark,
            label: label.into(),
        });
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if no records have been appended.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over all records in order.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Every protocol mark with its time, in order.
    pub fn marks(&self) -> impl Iterator<Item = (SimTime, &Mark)> {
        self.events.iter().filter_map(|e| Some((e.time, e.mark()?)))
    }

    /// Times of all marks stating `label`: a protocol fact, or free text.
    pub fn times_of<'a>(&'a self, label: impl Into<Label>) -> impl Iterator<Item = SimTime> + 'a {
        let label = label.into();
        self.events
            .iter()
            .filter(move |e| e.kind == TraceKind::Mark && e.label == label)
            .map(|e| e.time)
    }

    /// Times of all marks with exactly the label `label`. The label is
    /// parsed once, so a protocol label matches its typed records.
    pub fn mark_times<'a>(&'a self, label: &'a str) -> impl Iterator<Item = SimTime> + 'a {
        self.times_of(label)
    }

    /// The first mark with label `label` at or after `t`, if any.
    pub fn first_mark_at_or_after(&self, t: SimTime, label: &str) -> Option<SimTime> {
        self.mark_times(label).find(|&mt| mt >= t)
    }

    /// Records within the half-open window `[from, to)`.
    pub fn window<'a>(
        &'a self,
        from: SimTime,
        to: SimTime,
    ) -> impl Iterator<Item = &'a TraceEvent> + 'a {
        self.events
            .iter()
            .filter(move |e| e.time >= from && e.time < to)
    }

    /// Renders the whole trace, one event per line (debugging aid).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceEvent;
    type IntoIter = std::slice::Iter<'a, TraceEvent>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    fn sample() -> Trace {
        let mut tr = Trace::new();
        tr.record(t(0.0), None, TraceKind::Spawned, "ses");
        tr.record(t(1.0), None, TraceKind::Crashed, "ses");
        tr.record(t(1.9), None, TraceKind::Mark, "detect:ses");
        tr.record(t(2.0), None, TraceKind::Restarted, "ses");
        tr.record(t(7.3), None, TraceKind::Mark, "ready:ses");
        tr.record(t(9.0), None, TraceKind::Mark, "ready:str");
        tr
    }

    #[test]
    fn mark_times_filters_by_label() {
        let tr = sample();
        let times: Vec<_> = tr.mark_times("ready:ses").collect();
        assert_eq!(times, vec![t(7.3)]);
    }

    #[test]
    fn first_mark_at_or_after_respects_threshold() {
        let tr = sample();
        assert_eq!(tr.first_mark_at_or_after(t(0.0), "ready:ses"), Some(t(7.3)));
        assert_eq!(tr.first_mark_at_or_after(t(7.3), "ready:ses"), Some(t(7.3)));
        assert_eq!(tr.first_mark_at_or_after(t(7.4), "ready:ses"), None);
    }

    #[test]
    fn window_is_half_open() {
        let tr = sample();
        let in_window: Vec<_> = tr.window(t(1.0), t(2.0)).map(|e| e.kind).collect();
        assert_eq!(in_window, vec![TraceKind::Crashed, TraceKind::Mark]);
    }

    #[test]
    fn render_is_line_per_event() {
        let tr = sample();
        let rendered = tr.render();
        assert_eq!(rendered.lines().count(), tr.len());
        assert!(rendered.contains("mark ready:ses"));
    }

    #[test]
    fn empty_and_len() {
        let tr = Trace::new();
        assert!(tr.is_empty());
        assert_eq!(tr.len(), 0);
        assert_eq!(sample().len(), 6);
    }
}
