//! Component deadline model: time-to-next-pass and criticality.
//!
//! The paper optimizes MTTR as if every restart can run the moment it is
//! planned, but a ground station is deadline-driven: a satellite pass is a
//! hard real-time window, and recovery work competes for the time remaining
//! before the next pass rises. A [`DeadlineModel`] attaches to each component
//! an absolute *deadline* (the instant by which it must be healthy again —
//! typically the next pass rise) and a small integer *criticality* (how much
//! a missed deadline hurts). From those the model derives **slack** — time
//! remaining until the deadline — and an [`Urgency`] ordering used by the
//! episode planner ([`crate::schedule`]) and the admission controller in
//! front of the recoverer: most-critical first, then least slack first.

use std::collections::BTreeMap;

use rr_sim::{SimDuration, SimTime};

/// Per-component deadlines and criticalities.
///
/// Components absent from the model have no deadline (infinite slack) and
/// the default criticality `0`. Deadlines are absolute instants; callers
/// advance them as passes come and go (e.g. Mercury re-derives them from the
/// orbit propagator whenever a recovery decision is made).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeadlineModel {
    deadlines: BTreeMap<String, SimTime>,
    criticality: BTreeMap<String, u8>,
}

/// The sort key deadline-aware scheduling uses: higher criticality first,
/// then smaller slack first; components without a deadline sort last.
/// Ordered so that `a < b` means `a` is **more urgent** than `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Urgency {
    /// Criticality, negated into "smaller is more urgent" form
    /// (`u8::MAX - criticality`).
    inverted_criticality: u8,
    /// Slack in nanoseconds; `u64::MAX` when no deadline applies.
    slack_nanos: u64,
}

impl Urgency {
    /// The least urgent possible key: no deadline, criticality 0.
    const RELAXED: Urgency = Urgency {
        inverted_criticality: u8::MAX,
        slack_nanos: u64::MAX,
    };
}

impl DeadlineModel {
    /// An empty model: every component has infinite slack, criticality 0.
    pub fn new() -> DeadlineModel {
        DeadlineModel::default()
    }

    /// `true` if no component has a deadline or a criticality set.
    pub fn is_empty(&self) -> bool {
        self.deadlines.is_empty() && self.criticality.is_empty()
    }

    /// Sets `component`'s absolute deadline (e.g. the next pass rise).
    pub fn set_deadline(&mut self, component: impl Into<String>, at: SimTime) {
        self.deadlines.insert(component.into(), at);
    }

    /// Sets `component`'s criticality (higher = more important).
    pub fn set_criticality(&mut self, component: impl Into<String>, level: u8) {
        self.criticality.insert(component.into(), level);
    }

    /// `component`'s deadline, if one is set.
    pub fn deadline_of(&self, component: &str) -> Option<SimTime> {
        self.deadlines.get(component).copied()
    }

    /// `component`'s criticality (0 if never set).
    fn criticality_of(&self, component: &str) -> u8 {
        self.criticality.get(component).copied().unwrap_or(0)
    }

    /// Time remaining until `component`'s deadline ([`SimDuration::ZERO`] if
    /// the deadline already passed), or `None` if it has no deadline.
    pub fn slack(&self, component: &str, now: SimTime) -> Option<SimDuration> {
        self.deadlines
            .get(component)
            .map(|d| d.saturating_since(now))
    }

    /// The urgency key for a single component at `now`.
    pub fn urgency(&self, component: &str, now: SimTime) -> Urgency {
        Urgency {
            inverted_criticality: u8::MAX - self.criticality_of(component),
            slack_nanos: self
                .slack(component, now)
                .map(|s| s.as_nanos())
                .unwrap_or(u64::MAX),
        }
    }

    /// The urgency of a whole group (e.g. a planned episode's components):
    /// the group inherits its most critical member's criticality and its
    /// tightest member's slack.
    pub fn group_urgency<I, S>(&self, components: I, now: SimTime) -> Urgency
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut best = Urgency::RELAXED;
        for c in components {
            let u = self.urgency(c.as_ref(), now);
            best = Urgency {
                inverted_criticality: best.inverted_criticality.min(u.inverted_criticality),
                slack_nanos: best.slack_nanos.min(u.slack_nanos),
            };
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn empty_model_is_all_relaxed() {
        let m = DeadlineModel::new();
        assert!(m.is_empty());
        assert_eq!(m.slack("rtu", t(5)), None);
        assert_eq!(m.criticality_of("rtu"), 0);
        assert_eq!(m.urgency("rtu", t(5)), Urgency::RELAXED);
    }

    #[test]
    fn slack_counts_down_and_saturates() {
        let mut m = DeadlineModel::new();
        m.set_deadline("fedr", t(100));
        assert_eq!(m.slack("fedr", t(40)), Some(SimDuration::from_secs(60)));
        assert_eq!(m.slack("fedr", t(150)), Some(SimDuration::ZERO));
        assert_eq!(m.slack("rtu", t(40)), None);
    }

    #[test]
    fn urgency_orders_criticality_before_slack() {
        let mut m = DeadlineModel::new();
        m.set_deadline("low", t(10)); // tight slack, criticality 0
        m.set_deadline("high", t(1000)); // loose slack, criticality 2
        m.set_criticality("high", 2);
        let now = t(0);
        assert!(m.urgency("high", now) < m.urgency("low", now));
        // Equal criticality: the smaller slack wins.
        m.set_criticality("low", 2);
        assert!(m.urgency("low", now) < m.urgency("high", now));
        // Anything with a deadline beats the relaxed default.
        assert!(m.urgency("low", now) < m.urgency("absent", now));
    }

    #[test]
    fn group_urgency_takes_most_critical_and_tightest() {
        let mut m = DeadlineModel::new();
        m.set_deadline("a", t(50));
        m.set_deadline("b", t(20));
        m.set_criticality("a", 3);
        let g = m.group_urgency(["a", "b"], t(0));
        // Criticality 3 (from a), slack 20 s (from b).
        assert_eq!(g.inverted_criticality, u8::MAX - 3);
        assert_eq!(g.slack_nanos, SimDuration::from_secs(20).as_nanos());
        assert_eq!(
            m.group_urgency(Vec::<String>::new(), t(0)),
            Urgency::RELAXED
        );
    }
}
