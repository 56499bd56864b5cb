//! Post-hoc happens-before verification of telemetry episode streams.
//!
//! `rr-sim`'s telemetry registry stamps every episode event with a vector
//! clock ([`rr_sim::VectorClock`]); this module checks a recorded stream for
//! causal-order violations without re-running anything:
//!
//! * virtual time never runs backwards,
//! * each telemetry key's clock grows strictly (no stale-epoch attribution:
//!   an event recorded against an older clock snapshot is a replayed or
//!   misattributed observation),
//! * `Ready` follows a `Restarting` of the same episode, causally after it,
//! * `Cured` closes an episode that was actually restarting (never one that
//!   was merged away),
//! * an LCA merge happens-before the absorbing episode's restart — the
//!   "child ready before its merged parent began restarting" bug is a clock
//!   that fails to dominate here,
//! * a conviction (`Suspected`) never causally precedes the injection it
//!   detects.
//!
//! The verifier is deliberately permissive about *which* events appear (a
//! chaos campaign's stream looks different from a golden scenario's); it is
//! strict about the causal order of the ones that do.

use std::collections::HashMap;

use rr_sim::telemetry::{EpisodeEvent, EpisodeStage};
use rr_sim::{Registry, VectorClock};

/// One causal-order violation in a recorded stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HbViolation {
    /// Index of the offending event in the stream.
    pub index: usize,
    /// What order was violated.
    pub message: String,
}

impl std::fmt::Display for HbViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "event {}: {}", self.index, self.message)
    }
}

/// Where one telemetry key's episode currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    Restarting,
    Ready,
    MergedAway,
}

#[derive(Debug, Clone, Default)]
struct KeyState {
    phase: Option<Phase>,
    last_clock: Option<VectorClock>,
    last_restarting: Option<VectorClock>,
    last_injected: Option<VectorClock>,
}

/// Verifies a stream of `(event, clock)` pairs (index-aligned slices, as
/// produced by [`Registry::events`] / [`Registry::clocks`]). Returns every
/// violation found, in stream order; an empty result means the stream is
/// causally consistent.
pub fn verify(events: &[EpisodeEvent], clocks: &[VectorClock]) -> Vec<HbViolation> {
    let mut violations = Vec::new();
    if events.len() != clocks.len() {
        violations.push(HbViolation {
            index: 0,
            message: format!(
                "clock stream out of step with event stream ({} events, {} clocks)",
                events.len(),
                clocks.len()
            ),
        });
        return violations;
    }
    let mut keys: HashMap<String, KeyState> = HashMap::new();
    // Merge edges waiting for the absorbing episode's restart:
    // into-key → (merge event index, merge clock).
    let mut pending_merges: HashMap<String, Vec<(usize, VectorClock)>> = HashMap::new();
    let mut last_at = None;

    for (index, (event, clock)) in events.iter().zip(clocks.iter()).enumerate() {
        if let Some(prev) = last_at {
            if event.at < prev {
                violations.push(HbViolation {
                    index,
                    message: format!(
                        "virtual time ran backwards ({:?} after {:?})",
                        event.at, prev
                    ),
                });
            }
        }
        last_at = Some(event.at);

        let key = keys.entry(event.component.clone()).or_default();
        if let Some(prev) = &key.last_clock {
            if !prev.happens_before(clock) {
                violations.push(HbViolation {
                    index,
                    message: format!(
                        "`{}`'s clock did not advance ({prev} then {clock}): stale-epoch \
                         attribution",
                        event.component
                    ),
                });
            }
        }
        key.last_clock = Some(clock.clone());

        let phase = key.phase.unwrap_or(Phase::Idle);
        match event.stage {
            EpisodeStage::Injected => {
                key.last_injected = Some(clock.clone());
            }
            EpisodeStage::Suspected => {
                if let Some(injected) = &key.last_injected {
                    if !injected.happens_before(clock) {
                        violations.push(HbViolation {
                            index,
                            message: format!(
                                "`{}` convicted concurrently with (or before) its own \
                                 injection",
                                event.component
                            ),
                        });
                    }
                }
            }
            EpisodeStage::Planned => {}
            EpisodeStage::Merged => {
                key.phase = Some(Phase::MergedAway);
                if let Some(into) = event.detail.strip_prefix("into=") {
                    pending_merges
                        .entry(into.to_string())
                        .or_default()
                        .push((index, clock.clone()));
                }
            }
            EpisodeStage::Restarting => {
                key.phase = Some(Phase::Restarting);
                key.last_restarting = Some(clock.clone());
                if let Some(edges) = pending_merges.remove(&event.component) {
                    for (merge_index, merge_clock) in edges {
                        if !merge_clock.happens_before(clock) {
                            violations.push(HbViolation {
                                index,
                                message: format!(
                                    "restart of `{}` does not causally follow the merge \
                                     at event {merge_index} it absorbs",
                                    event.component
                                ),
                            });
                        }
                    }
                }
            }
            EpisodeStage::Ready => {
                match phase {
                    Phase::Restarting => {}
                    Phase::MergedAway => violations.push(HbViolation {
                        index,
                        message: format!(
                            "`{}` reported ready after being merged away (child ready \
                             before its merged parent began restarting)",
                            event.component
                        ),
                    }),
                    Phase::Idle | Phase::Ready => violations.push(HbViolation {
                        index,
                        message: format!(
                            "`{}` reported ready without a restart in progress",
                            event.component
                        ),
                    }),
                }
                if let Some(restarting) = &key.last_restarting {
                    if phase == Phase::Restarting && !restarting.happens_before(clock) {
                        violations.push(HbViolation {
                            index,
                            message: format!(
                                "`{}` ready does not causally follow its restart",
                                event.component
                            ),
                        });
                    }
                }
                key.phase = Some(Phase::Ready);
            }
            EpisodeStage::Cured => {
                match phase {
                    Phase::Restarting | Phase::Ready => {}
                    Phase::MergedAway => violations.push(HbViolation {
                        index,
                        message: format!(
                            "`{}` cured after being merged away — the cure belongs to \
                             the absorbing episode",
                            event.component
                        ),
                    }),
                    Phase::Idle => violations.push(HbViolation {
                        index,
                        message: format!("`{}` cured with no episode restarting", event.component),
                    }),
                }
                key.phase = Some(Phase::Idle);
            }
            EpisodeStage::Quarantined => {
                key.phase = Some(Phase::Idle);
            }
            // Admission-control decisions park or drop a request before any
            // episode opens; they impose no phase transition of their own
            // (the generic clock-advance check above still applies).
            EpisodeStage::Deferred | EpisodeStage::Shed => {}
        }
    }
    violations
}

/// Verifies a telemetry registry's recorded episode stream.
pub fn verify_registry(registry: &Registry) -> Vec<HbViolation> {
    verify(registry.events(), registry.clocks())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_sim::{Mark, SimTime};

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn event(s: u64, component: &str, stage: EpisodeStage, detail: &str) -> EpisodeEvent {
        EpisodeEvent {
            at: t(s),
            component: component.to_string(),
            stage,
            detail: detail.to_string(),
        }
    }

    /// Drives a real registry through a merged two-origin episode; the
    /// recorded stream must verify clean.
    #[test]
    fn real_registry_merged_episode_verifies_clean() {
        let mut reg = Registry::new();
        reg.record_injected(t(1), "pbcom", "kill");
        reg.record_injected(t(2), "fedr", "kill");
        for (s, label) in [
            (3, "detect:pbcom"),
            (3, "detect:fedr"),
            (4, "merge:pbcom->fedr"),
            (4, "restart:fedr:0:fedr+pbcom"),
            (6, "ready:fedr"),
            (7, "ready:pbcom"),
            (8, "cured:fedr"),
            (8, "cured:pbcom"),
        ] {
            let mark: Mark = label.parse().expect("a protocol label");
            reg.record(t(s), &mark);
        }
        assert_eq!(verify_registry(&reg), vec![]);
    }

    #[test]
    fn ready_without_restart_is_flagged() {
        let mut clock = VectorClock::new();
        clock.tick("a");
        let events = vec![event(1, "a", EpisodeStage::Ready, "set=a")];
        let violations = verify(&events, &[clock]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("without a restart"));
    }

    #[test]
    fn stale_clock_attribution_is_flagged() {
        let mut c1 = VectorClock::new();
        c1.tick("a");
        let mut c2 = c1.clone();
        c2.tick("a");
        let events = vec![
            event(1, "a", EpisodeStage::Restarting, "attempt=0 set=a"),
            event(2, "a", EpisodeStage::Ready, "set=a"),
        ];
        // The second event reuses the *older* snapshot: stale attribution.
        let violations = verify(&events, &[c2, c1]);
        assert!(
            violations.iter().any(|v| v.message.contains("stale-epoch")),
            "{violations:?}"
        );
    }

    #[test]
    fn cured_after_merge_away_is_flagged() {
        let mut c1 = VectorClock::new();
        c1.tick("b");
        let mut c2 = c1.clone();
        c2.tick("b");
        let events = vec![
            event(1, "b", EpisodeStage::Merged, "into=a"),
            event(2, "b", EpisodeStage::Cured, ""),
        ];
        let violations = verify(&events, &[c1, c2]);
        assert!(
            violations.iter().any(|v| v.message.contains("merged away")),
            "{violations:?}"
        );
    }

    #[test]
    fn merge_not_preceding_absorbing_restart_is_flagged() {
        // b merges into a, but a's restart clock does not dominate the merge
        // clock — the "child ready before merged parent began restarting"
        // family of bugs.
        let mut merge_clock = VectorClock::new();
        merge_clock.tick("b");
        let mut restart_clock = VectorClock::new();
        restart_clock.tick("a");
        let events = vec![
            event(1, "b", EpisodeStage::Merged, "into=a"),
            event(2, "a", EpisodeStage::Restarting, "attempt=0 set=a+b"),
        ];
        let violations = verify(&events, &[merge_clock, restart_clock]);
        assert!(
            violations
                .iter()
                .any(|v| v.message.contains("does not causally follow the merge")),
            "{violations:?}"
        );
    }

    #[test]
    fn time_running_backwards_is_flagged() {
        let mut c1 = VectorClock::new();
        c1.tick("a");
        let mut c2 = c1.clone();
        c2.tick("a");
        let events = vec![
            event(5, "a", EpisodeStage::Restarting, "attempt=0 set=a"),
            event(4, "a", EpisodeStage::Ready, "set=a"),
        ];
        let violations = verify(&events, &[c1, c2]);
        assert!(
            violations
                .iter()
                .any(|v| v.message.contains("ran backwards")),
            "{violations:?}"
        );
    }

    #[test]
    fn clock_stream_length_mismatch_is_flagged() {
        let events = vec![event(1, "a", EpisodeStage::Injected, "kill")];
        let violations = verify(&events, &[]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("out of step"));
    }

    #[test]
    fn disabled_registry_verifies_trivially() {
        let mut reg = Registry::disabled();
        reg.record_injected(t(1), "pbcom", "kill");
        assert!(verify_registry(&reg).is_empty());
    }
}
