//! Restart policies: bounding restarts so "hard" failures are not looped on.
//!
//! §2.2: "The policy also keeps track of past restarts to prevent infinite
//! restarts of 'hard' failures." A [`RestartPolicy`] enforces two limits:
//!
//! * an **escalation limit** per failure episode — after climbing the tree
//!   this many times without a cure, the failure is declared not
//!   restart-curable (violating `A_cure`) and handed to a human;
//! * a **rate limit** per component — more than `max_restarts` restarts of
//!   the same component within `window` indicates a hard fault (e.g. failed
//!   hardware), which restarting cannot fix (§7).
//!
//! It can additionally impose an **exponential backoff** between successive
//! restarts of the same cell ([`RestartPolicy::with_backoff`]): the *n*-th
//! restart of a component within the rate window is delayed by
//! `base · 2^(n−1)`, capped. Backoff spaces out the restart storm a
//! persistently failing component would otherwise cause, while leaving the
//! first restart of a failure episode immediate.

use std::collections::VecDeque;
use std::fmt;

use rr_sim::{intern, CompId, FxHashMap, SimDuration, SimTime};

/// How a component's in-flight state is brought back after a restart —
/// the policy axis ROADMAP item 3 calls for (restart vs. checkpoint).
///
/// The paper's components re-derive lost state from scratch on every
/// restart (for ses/str, the §4.3 resync). With a crash-safe store
/// (`rr-store`) a component can instead *rehydrate*: replay its last
/// durable checkpoint plus journal tail, paying replay time proportional
/// to state size instead of the cold re-derivation — and paying a
/// periodic checkpoint-write cost while healthy. Which side wins depends
/// on failure rate and state size; the `repro checkpoint` experiment
/// maps the boundary.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RecoveryMode {
    /// Re-derive in-flight state from scratch (the paper's behaviour).
    #[default]
    ColdRestart,
    /// Rehydrate from the durable store, checkpointing every
    /// `checkpoint_interval_s` while healthy. Falls back to a cold
    /// restart when no checkpoint verifies (e.g. a corrupted journal).
    Rehydrate {
        /// Seconds between checkpoint writes while the component is
        /// healthy; bounds both the journal tail replayed on recovery
        /// and the state lost to a crash.
        checkpoint_interval_s: f64,
    },
}

impl RecoveryMode {
    /// `true` for any [`RecoveryMode::Rehydrate`] configuration.
    pub fn is_rehydrate(&self) -> bool {
        matches!(self, RecoveryMode::Rehydrate { .. })
    }
}

/// Why the policy refused to keep restarting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GiveUpReason {
    /// The escalation limit was reached: even a root restart did not cure.
    EscalationExhausted,
    /// The component was restarted too many times within the rate window —
    /// a hard failure is suspected.
    RestartStorm,
}

impl fmt::Display for GiveUpReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GiveUpReason::EscalationExhausted => {
                write!(f, "escalation exhausted: failure is not restart-curable")
            }
            GiveUpReason::RestartStorm => {
                write!(f, "restart storm: hard failure suspected")
            }
        }
    }
}

/// Configurable restart-bounding policy.
///
/// ```
/// use rr_core::policy::RestartPolicy;
/// use rr_sim::SimDuration;
/// let policy = RestartPolicy::new()
///     .with_escalation_limit(4)
///     .with_rate_limit(10, SimDuration::from_secs(3600));
/// assert_eq!(policy.escalation_limit(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RestartPolicy {
    escalation_limit: u32,
    max_restarts: u32,
    window: SimDuration,
    backoff_base: SimDuration,
    backoff_cap: SimDuration,
    /// Restart timestamps per component, keyed by interned handle. Never
    /// iterated (lookups only), so the hash order can't leak into output;
    /// equality still holds across instances because interning is
    /// process-global (same name ⇒ same handle).
    history: FxHashMap<CompId, VecDeque<SimTime>>,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy::new()
    }
}

impl RestartPolicy {
    /// A policy with generous defaults: 8 escalations per episode, at most
    /// 20 restarts of any one component per hour, no backoff.
    pub fn new() -> RestartPolicy {
        RestartPolicy {
            escalation_limit: 8,
            max_restarts: 20,
            window: SimDuration::from_secs(3600),
            backoff_base: SimDuration::ZERO,
            backoff_cap: SimDuration::from_secs(30),
            history: FxHashMap::default(),
        }
    }

    /// Sets the per-episode escalation limit.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    #[must_use]
    pub fn with_escalation_limit(mut self, limit: u32) -> RestartPolicy {
        assert!(limit > 0, "escalation limit must be positive");
        self.escalation_limit = limit;
        self
    }

    /// Sets the per-component rate limit: at most `max_restarts` restarts in
    /// any sliding `window`.
    ///
    /// # Panics
    ///
    /// Panics if `max_restarts` is zero or the window is zero.
    #[must_use]
    pub fn with_rate_limit(mut self, max_restarts: u32, window: SimDuration) -> RestartPolicy {
        assert!(max_restarts > 0, "max_restarts must be positive");
        assert!(!window.is_zero(), "rate window must be positive");
        self.max_restarts = max_restarts;
        self.window = window;
        self
    }

    /// Enables exponential backoff between successive restarts of the same
    /// component: the *n*-th restart within the rate window is delayed by
    /// `base · 2^(n−1)`, never exceeding `cap`. A zero base disables
    /// backoff (the default).
    ///
    /// # Panics
    ///
    /// Panics if `cap < base`.
    #[must_use]
    pub fn with_backoff(mut self, base: SimDuration, cap: SimDuration) -> RestartPolicy {
        assert!(cap >= base, "backoff cap must be at least the base");
        self.backoff_base = base;
        self.backoff_cap = cap;
        self
    }

    /// The configured backoff as `(base, cap)`.
    pub fn backoff(&self) -> (SimDuration, SimDuration) {
        (self.backoff_base, self.backoff_cap)
    }

    /// The configured escalation limit.
    pub fn escalation_limit(&self) -> u32 {
        self.escalation_limit
    }

    /// The configured rate limit as `(max_restarts, window)`.
    pub fn rate_limit(&self) -> (u32, SimDuration) {
        (self.max_restarts, self.window)
    }

    /// Checks whether another restart attempt is allowed.
    ///
    /// `attempt` is the 0-based escalation attempt within the current
    /// episode; `components` are the components that would be restarted.
    ///
    /// # Errors
    ///
    /// Returns the [`GiveUpReason`] if the attempt must not proceed.
    pub fn check(
        &self,
        attempt: u32,
        components: &[String],
        now: SimTime,
    ) -> Result<(), GiveUpReason> {
        if attempt >= self.escalation_limit {
            return Err(GiveUpReason::EscalationExhausted);
        }
        let cutoff = now
            .saturating_since(SimTime::ZERO)
            .saturating_sub(self.window);
        for comp in components {
            if let Some(times) = self.history.get(&intern(comp)) {
                let recent = times
                    .iter()
                    .filter(|t| t.saturating_since(SimTime::ZERO) >= cutoff)
                    .count();
                if recent >= self.max_restarts as usize {
                    return Err(GiveUpReason::RestartStorm);
                }
            }
        }
        Ok(())
    }

    /// How long the next restart of `components` should be delayed, given
    /// the restarts already recorded inside the rate window: zero for the
    /// first restart, `base · 2^(n−1)` (capped) once *n* prior restarts of
    /// any member component are on record. Call *before*
    /// [`record_restart`](Self::record_restart) for the new attempt.
    pub fn restart_delay(&self, components: &[String], now: SimTime) -> SimDuration {
        if self.backoff_base.is_zero() {
            return SimDuration::ZERO;
        }
        let cutoff = now
            .saturating_since(SimTime::ZERO)
            .saturating_sub(self.window);
        let prior = components
            .iter()
            .map(|comp| {
                self.history.get(&intern(comp)).map_or(0, |times| {
                    times
                        .iter()
                        .filter(|t| t.saturating_since(SimTime::ZERO) >= cutoff)
                        .count()
                })
            })
            .max()
            .unwrap_or(0);
        if prior == 0 {
            return SimDuration::ZERO;
        }
        let factor = 2f64.powi((prior - 1).min(62) as i32);
        self.backoff_base.mul_f64(factor).min(self.backoff_cap)
    }

    /// Records that `components` were restarted at `now`.
    pub fn record_restart(&mut self, components: &[String], now: SimTime) {
        for comp in components {
            let times = self.history.entry(intern(comp)).or_default();
            times.push_back(now);
            // Trim entries that have aged out of the window.
            while let Some(&front) = times.front() {
                if now.saturating_since(front) > self.window {
                    times.pop_front();
                } else {
                    break;
                }
            }
        }
    }

    /// Total recorded restarts of a component (by its interned handle) still
    /// inside the window as of the last
    /// [`record_restart`](Self::record_restart) call.
    pub fn recent_restarts(&self, component: CompId) -> usize {
        self.history.get(&component).map_or(0, VecDeque::len)
    }

    /// Forgets all restart history (e.g. after maintenance).
    pub fn reset(&mut self) {
        self.history.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn comps(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn escalation_limit_enforced() {
        let policy = RestartPolicy::new().with_escalation_limit(3);
        let c = comps(&["x"]);
        assert!(policy.check(0, &c, t(0)).is_ok());
        assert!(policy.check(2, &c, t(0)).is_ok());
        assert_eq!(
            policy.check(3, &c, t(0)),
            Err(GiveUpReason::EscalationExhausted)
        );
    }

    #[test]
    fn rate_limit_trips_within_window() {
        let mut policy = RestartPolicy::new().with_rate_limit(3, SimDuration::from_secs(100));
        let c = comps(&["x"]);
        for i in 0..3 {
            assert!(policy.check(0, &c, t(i * 10)).is_ok());
            policy.record_restart(&c, t(i * 10));
        }
        assert_eq!(policy.check(0, &c, t(30)), Err(GiveUpReason::RestartStorm));
        assert_eq!(policy.recent_restarts(intern("x")), 3);
    }

    #[test]
    fn rate_limit_recovers_after_window() {
        let mut policy = RestartPolicy::new().with_rate_limit(2, SimDuration::from_secs(100));
        let c = comps(&["x"]);
        policy.record_restart(&c, t(0));
        policy.record_restart(&c, t(10));
        assert!(policy.check(0, &c, t(50)).is_err());
        // 150s later, both restarts have aged out.
        assert!(policy.check(0, &c, t(160)).is_ok());
    }

    #[test]
    fn rate_limit_is_per_component() {
        let mut policy = RestartPolicy::new().with_rate_limit(1, SimDuration::from_secs(100));
        policy.record_restart(&comps(&["x"]), t(0));
        assert!(policy.check(0, &comps(&["y"]), t(1)).is_ok());
        assert!(policy.check(0, &comps(&["x"]), t(1)).is_err());
        // A group restart containing a throttled component is throttled.
        assert!(policy.check(0, &comps(&["y", "x"]), t(1)).is_err());
    }

    #[test]
    fn reset_clears_history() {
        let mut policy = RestartPolicy::new().with_rate_limit(1, SimDuration::from_secs(100));
        policy.record_restart(&comps(&["x"]), t(0));
        assert!(policy.check(0, &comps(&["x"]), t(1)).is_err());
        policy.reset();
        assert!(policy.check(0, &comps(&["x"]), t(1)).is_ok());
        assert_eq!(policy.recent_restarts(intern("x")), 0);
    }

    #[test]
    fn backoff_disabled_by_default() {
        let mut policy = RestartPolicy::new();
        let c = comps(&["x"]);
        for i in 0..5 {
            policy.record_restart(&c, t(i * 10));
            assert_eq!(policy.restart_delay(&c, t(i * 10 + 5)), SimDuration::ZERO);
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let base = SimDuration::from_secs(1);
        let cap = SimDuration::from_secs(8);
        let mut policy = RestartPolicy::new().with_backoff(base, cap);
        let c = comps(&["x"]);
        assert_eq!(policy.restart_delay(&c, t(0)), SimDuration::ZERO);
        let mut want = [1u64, 2, 4, 8, 8, 8].into_iter();
        for i in 0..6 {
            policy.record_restart(&c, t(i * 10));
            let delay = policy.restart_delay(&c, t(i * 10 + 5));
            assert_eq!(
                delay,
                SimDuration::from_secs(want.next().unwrap()),
                "after {} restarts",
                i + 1
            );
        }
    }

    #[test]
    fn backoff_uses_worst_member_of_a_group() {
        let policy_base = SimDuration::from_secs(2);
        let mut policy = RestartPolicy::new().with_backoff(policy_base, SimDuration::from_secs(60));
        policy.record_restart(&comps(&["x"]), t(0));
        policy.record_restart(&comps(&["x"]), t(10));
        // y has never restarted, but a joint [x, y] restart inherits x's backoff.
        assert_eq!(
            policy.restart_delay(&comps(&["y"]), t(20)),
            SimDuration::ZERO
        );
        assert_eq!(
            policy.restart_delay(&comps(&["x", "y"]), t(20)),
            SimDuration::from_secs(4)
        );
    }

    #[test]
    fn prop_backoff_monotone_within_window() {
        // Within the rate window, successive restart delays of the same cell
        // never decrease, whatever the restart spacing.
        rr_sim::check::run("policy/backoff_monotone", 64, |rng| {
            let base = SimDuration::from_secs_f64(rng.uniform(0.1, 2.0));
            let cap = base.mul_f64(rng.uniform(1.0, 40.0));
            let window = SimDuration::from_secs(10_000);
            let mut policy = RestartPolicy::new()
                .with_backoff(base, cap)
                .with_rate_limit(64, window);
            let c = comps(&["x"]);
            let mut now = SimTime::ZERO;
            let mut last = SimDuration::ZERO;
            for _ in 0..rng.next_below(20) {
                now += SimDuration::from_secs_f64(rng.uniform(0.0, 100.0));
                let delay = policy.restart_delay(&c, now);
                assert!(delay >= last, "backoff shrank from {last:?} to {delay:?}");
                assert!(delay <= cap, "backoff {delay:?} above cap {cap:?}");
                last = delay;
                policy.record_restart(&c, now);
            }
        });
    }

    #[test]
    fn prop_backoff_window_forgets_old_restarts() {
        // Once every recorded restart has aged out of the window, the next
        // restart is immediate again and the storm counter is back to zero.
        rr_sim::check::run("policy/backoff_forgets", 64, |rng| {
            let window = SimDuration::from_secs_f64(rng.uniform(10.0, 1000.0));
            let mut policy = RestartPolicy::new()
                .with_backoff(SimDuration::from_secs(1), SimDuration::from_secs(600))
                .with_rate_limit(3, window);
            let c = comps(&["x"]);
            let n = 1 + rng.next_below(3);
            let mut now = SimTime::ZERO;
            for _ in 0..n {
                now += SimDuration::from_secs_f64(rng.uniform(0.0, window.as_secs_f64() / 4.0));
                policy.record_restart(&c, now);
            }
            // Step past the window: everything is forgotten.
            let later = now + window + SimDuration::from_secs(1);
            assert_eq!(policy.restart_delay(&c, later), SimDuration::ZERO);
            assert!(policy.check(0, &c, later).is_ok());
            // record_restart also trims the aged-out history.
            policy.record_restart(&c, later);
            assert_eq!(policy.recent_restarts(intern("x")), 1);
        });
    }

    #[test]
    fn prop_reset_restores_clean_slate() {
        rr_sim::check::run("policy/reset_clean", 32, |rng| {
            let mut policy = RestartPolicy::new()
                .with_backoff(SimDuration::from_secs(1), SimDuration::from_secs(30))
                .with_rate_limit(2, SimDuration::from_secs(1000));
            let c = comps(&["x"]);
            let n = rng.next_below(6);
            let mut now = SimTime::ZERO;
            for _ in 0..n {
                now += SimDuration::from_secs_f64(rng.uniform(0.0, 50.0));
                policy.record_restart(&c, now);
            }
            policy.reset();
            assert_eq!(policy.recent_restarts(intern("x")), 0);
            assert_eq!(policy.restart_delay(&c, now), SimDuration::ZERO);
            assert!(policy.check(0, &c, now).is_ok());
        });
    }

    #[test]
    #[should_panic(expected = "cap must be at least")]
    fn backoff_cap_below_base_rejected() {
        let _ = RestartPolicy::new()
            .with_backoff(SimDuration::from_secs(10), SimDuration::from_secs(1));
    }

    #[test]
    fn give_up_reasons_display() {
        assert!(GiveUpReason::EscalationExhausted
            .to_string()
            .contains("not restart-curable"));
        assert!(GiveUpReason::RestartStorm
            .to_string()
            .contains("hard failure"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_escalation_limit_rejected() {
        let _ = RestartPolicy::new().with_escalation_limit(0);
    }
}
