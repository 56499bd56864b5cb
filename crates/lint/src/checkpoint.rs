//! Checkpoint/rehydrate-policy feasibility lints (`RRL9xx`).
//!
//! The crash-safe state store (PR 8) lets a component *rehydrate* from a
//! verified checkpoint instead of cold-booting. That is only sound — and
//! only worth the journaling overhead — under two static conditions: a
//! checkpoint write must finish before the next one is due, and the
//! worst-case replay (snapshot plus one interval of update records) must
//! beat the cold re-derivation it replaces. A third structural condition
//! ties the policy to the tree: a rehydrating component must actually be
//! restartable, i.e. attached to some cell. These lints check all three
//! before the station runs.

use rr_core::tree::RestartTree;

use crate::catalog;
use crate::diag::{Diagnostic, Report};

/// One component with a `Rehydrate` recovery mode.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointComponent {
    /// Component name (as attached to the restart tree).
    pub name: String,
    /// Seconds between checkpoints for this component.
    pub checkpoint_interval_s: f64,
    /// Seconds the cold path takes to re-derive the same state (for the
    /// ses/str pair: the peer's resync service time). Rehydration competes
    /// against this.
    pub cold_rederive_s: f64,
}

/// The store/checkpoint inputs the linter reasons about: a lint input, not
/// a configuration type, because each component's `cold_rederive_s` comes
/// from mercury's calibration, which rr-lint cannot see.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointParams {
    /// Session-state snapshot size, in KiB.
    pub session_state_kb: f64,
    /// Store read/write throughput, in KiB/s.
    pub store_throughput_kbps: f64,
    /// Size of one incremental update record, in KiB.
    pub store_update_kb: f64,
    /// Seconds between incremental update records.
    pub store_update_period_s: f64,
    /// Every component configured to rehydrate. Empty means the policy is
    /// off and the report is trivially clean.
    pub components: Vec<CheckpointComponent>,
}

impl CheckpointParams {
    /// Seconds one checkpoint write occupies the store.
    fn write_s(&self) -> f64 {
        self.session_state_kb / self.store_throughput_kbps
    }

    /// Worst-case rehydrate replay: the snapshot plus a full interval's
    /// accumulation of update records, pushed back through the store.
    fn replay_s(&self, interval_s: f64) -> f64 {
        let updates = (interval_s / self.store_update_period_s).ceil();
        (self.session_state_kb + updates * self.store_update_kb) / self.store_throughput_kbps
    }
}

/// Lints the checkpoint/rehydrate policy: a checkpoint write must fit
/// inside its interval ([`RRL901`]), the worst-case replay must beat the
/// cold path ([`RRL902`]), and every rehydrating component must be attached
/// to the tree ([`RRL903`]). Pass `None` for `tree` to check only the
/// tree-independent rules.
///
/// [`RRL901`]: catalog::CHECKPOINT_WRITE_OVERRUN
/// [`RRL902`]: catalog::CHECKPOINT_REPLAY_REGRESSIVE
/// [`RRL903`]: catalog::CHECKPOINT_COMPONENT_DETACHED
pub fn lint_checkpoint(params: &CheckpointParams, tree: Option<&RestartTree>) -> Report {
    let mut report = Report::new();
    let write_s = params.write_s();
    for comp in &params.components {
        let interval = comp.checkpoint_interval_s;
        // Negated conjunction: NaN anywhere (interval or the shared store
        // knobs feeding write_s) fails the feasible case and fires the deny.
        if !(write_s.is_finite() && interval.is_finite() && interval > write_s) {
            report.push(Diagnostic::new(
                &catalog::CHECKPOINT_WRITE_OVERRUN,
                format!("checkpoint.{}.checkpoint_interval_s", comp.name),
                format!(
                    "a {:.2}s checkpoint write ({} KiB at {} KiB/s) cannot finish \
                     inside the {interval}s interval for {:?}",
                    write_s, params.session_state_kb, params.store_throughput_kbps, comp.name
                ),
            ));
            // Replay arithmetic is meaningless on top of an infeasible
            // write; skip the advisory rule for this component.
            continue;
        }
        let replay_s = params.replay_s(interval);
        if !(replay_s.is_finite()
            && comp.cold_rederive_s.is_finite()
            && replay_s < comp.cold_rederive_s)
        {
            report.push(Diagnostic::new(
                &catalog::CHECKPOINT_REPLAY_REGRESSIVE,
                format!("checkpoint.{}.cold_rederive_s", comp.name),
                format!(
                    "worst-case replay {replay_s:.2}s is no faster than the {:.2}s cold \
                     re-derivation for {:?}; rehydration buys nothing here",
                    comp.cold_rederive_s, comp.name
                ),
            ));
        }
        if let Some(tree) = tree {
            if !tree.components().iter().any(|c| c == &comp.name) {
                report.push(Diagnostic::new(
                    &catalog::CHECKPOINT_COMPONENT_DETACHED,
                    format!("checkpoint.{}", comp.name),
                    format!(
                        "{:?} has a rehydrate policy but no restart cell in the tree",
                        comp.name
                    ),
                ));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_core::tree::TreeSpec;

    fn sane() -> CheckpointParams {
        CheckpointParams {
            session_state_kb: 256.0,
            store_throughput_kbps: 2048.0,
            store_update_kb: 2.0,
            store_update_period_s: 2.0,
            components: vec![CheckpointComponent {
                name: "ses".into(),
                checkpoint_interval_s: 60.0,
                cold_rederive_s: 3.35,
            }],
        }
    }

    fn tree() -> RestartTree {
        TreeSpec::cell("root")
            .with_component("ses")
            .with_child(TreeSpec::cell("leaf").with_component("str"))
            .build()
            .unwrap()
    }

    #[test]
    fn sane_params_are_clean() {
        assert!(lint_checkpoint(&sane(), Some(&tree())).is_clean());
        assert!(lint_checkpoint(&sane(), None).is_clean());
        // No rehydrating components: trivially clean whatever the knobs.
        let off = CheckpointParams {
            store_throughput_kbps: f64::NAN,
            components: vec![],
            ..sane()
        };
        assert!(lint_checkpoint(&off, Some(&tree())).is_clean());
    }

    #[test]
    fn overrunning_write_denied() {
        // 16 MiB of state through a 2 MiB/s store is an 8s write; a 5s
        // interval can never drain it.
        let mut params = CheckpointParams {
            session_state_kb: 16.0 * 1024.0,
            ..sane()
        };
        params.components[0].checkpoint_interval_s = 5.0;
        let report = lint_checkpoint(&params, None);
        assert_eq!(report.codes(), vec!["RRL901"]);
        assert!(report.has_deny());
        // NaN knobs fall through the same negated conjunction.
        let mut nan = sane();
        nan.components[0].checkpoint_interval_s = f64::NAN;
        assert!(lint_checkpoint(&nan, None).fired("RRL901"));
        let poisoned = CheckpointParams {
            store_throughput_kbps: f64::NAN,
            ..sane()
        };
        assert!(lint_checkpoint(&poisoned, None).fired("RRL901"));
    }

    #[test]
    fn regressive_replay_warns() {
        // Same 16 MiB of state with a roomy interval: the write fits, but
        // an 8s+ replay loses to the 3.35s cold resync.
        let mut params = CheckpointParams {
            session_state_kb: 16.0 * 1024.0,
            ..sane()
        };
        params.components[0].checkpoint_interval_s = 600.0;
        let report = lint_checkpoint(&params, None);
        assert_eq!(report.codes(), vec!["RRL902"]);
        assert!(!report.has_deny());
        // A component with nothing to re-derive makes journaling pointless.
        let mut futile = sane();
        futile.components[0].cold_rederive_s = 0.0;
        assert!(lint_checkpoint(&futile, None).fired("RRL902"));
    }

    #[test]
    fn detached_component_denied_only_with_tree() {
        let mut params = sane();
        params.components.push(CheckpointComponent {
            name: "ghost".into(),
            checkpoint_interval_s: 60.0,
            cold_rederive_s: 3.35,
        });
        let report = lint_checkpoint(&params, Some(&tree()));
        assert_eq!(report.codes(), vec!["RRL903"]);
        assert!(report.has_deny());
        assert!(lint_checkpoint(&params, None).is_clean());
    }
}
