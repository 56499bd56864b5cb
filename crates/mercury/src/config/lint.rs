//! [`StationConfig::lint`]: the static checks a station passes before it
//! runs. The tree, FD and policy rules are rr-lint's; the deadline/admission
//! (`RRL8xx`) and checkpoint/rehydrate (`RRL90x`) rules live here because
//! they read this configuration together with the [`calib`] constants it is
//! judged against.

use rr_core::tree::RestartTree;
use rr_core::RecoveryMode;
use rr_lint::{catalog, Diagnostic, Report};

use super::{calib, StationConfig};

impl StationConfig {
    /// Statically lints this configuration against the restart tree it will
    /// operate: tree well-formedness, FD timing feasibility, restart policy
    /// soundness, deadline/admission feasibility and checkpoint/rehydrate
    /// feasibility. [`Station`](crate::station::Station) construction
    /// refuses to run when the report carries a deny diagnostic.
    pub fn lint(&self, tree: &RestartTree) -> Report {
        rr_lint::lint_tree(tree)
            .merged(rr_lint::lint_fd(&self.fd))
            .merged(rr_lint::lint_policy(&self.policy, tree))
            .merged(self.lint_deadline(tree))
            .merged(self.lint_checkpoint(tree))
    }

    /// The deadline-aware admission controller promises three things: a
    /// recovery admitted against a pass deadline can finish before the pass
    /// ([`RRL801`]), a deferred recovery that ages out is actually admitted
    /// ([`RRL802`]), and a first report of a faulty component is never shed,
    /// which needs one deferral-queue entry per component ([`RRL803`]). The
    /// capacity rules apply only with the controller on.
    ///
    /// [`RRL801`]: catalog::DEADLINE_PASS_INFEASIBLE
    /// [`RRL802`]: catalog::DEADLINE_AGING_UNHONORABLE
    /// [`RRL803`]: catalog::DEADLINE_QUEUE_UNDERPROVISIONED
    fn lint_deadline(&self, tree: &RestartTree) -> Report {
        let mut report = Report::new();
        // Detection plus the restart deadline bounds one worst-case recovery
        // episode end to end; if that exceeds the shortest pass window, even
        // an ideally scheduled recovery started at window open misses the
        // pass.
        let mean_detection_s = self.fd.mean_detection_s();
        if mean_detection_s + calib::RESTART_DEADLINE_S >= calib::MIN_PASS_WINDOW_S {
            report.push(Diagnostic::new(
                &catalog::DEADLINE_PASS_INFEASIBLE,
                "deadline.min_pass_window_s",
                format!(
                    "worst-case recovery (detection {mean_detection_s:.1}s + restart deadline \
                     {:.1}s) does not fit inside the {}s minimum pass window",
                    calib::RESTART_DEADLINE_S,
                    calib::MIN_PASS_WINDOW_S
                ),
            ));
        }
        if self.admission_enabled {
            // Under a saturated capacity window, deferred entries drain one
            // per `window / capacity` seconds; an aging bound below that
            // spacing is a promise the drain timer cannot keep.
            let spacing = self.admission_window_s / f64::from(self.admission_capacity.max(1));
            if spacing.is_finite() && spacing > self.defer_max_age_s {
                report.push(Diagnostic::new(
                    &catalog::DEADLINE_AGING_UNHONORABLE,
                    "deadline.defer_max_age_s",
                    format!(
                        "admitted-restart spacing {spacing:.1}s (window {}s / capacity {}) \
                         exceeds the {}s aging bound",
                        self.admission_window_s, self.admission_capacity, self.defer_max_age_s
                    ),
                ));
            }
            let components = tree.components().len();
            if calib::DEFER_QUEUE_LIMIT < components {
                report.push(Diagnostic::new(
                    &catalog::DEADLINE_QUEUE_UNDERPROVISIONED,
                    "deadline.defer_queue_limit",
                    format!(
                        "deferral queue bound {} is below the tree's {components} components",
                        calib::DEFER_QUEUE_LIMIT
                    ),
                ));
            }
        }
        report
    }

    /// Rehydrating from a verified checkpoint instead of cold-booting is
    /// sound, and worth the journaling, only if a checkpoint write finishes
    /// before the next is due ([`RRL901`]) and the worst-case replay (the
    /// snapshot plus one interval of update records) beats the cold
    /// re-derivation it replaces, [`calib::peer_resync_service_s`]
    /// ([`RRL902`]). A rehydrating component must also have a restart cell
    /// ([`RRL903`]).
    ///
    /// [`RRL901`]: catalog::CHECKPOINT_WRITE_OVERRUN
    /// [`RRL902`]: catalog::CHECKPOINT_REPLAY_REGRESSIVE
    /// [`RRL903`]: catalog::CHECKPOINT_COMPONENT_DETACHED
    fn lint_checkpoint(&self, tree: &RestartTree) -> Report {
        let mut report = Report::new();
        let state_kb = self.session_state_kb;
        let write_s = state_kb / calib::STORE_THROUGHPUT_KBPS;
        for (name, mode) in &self.recovery_modes {
            let RecoveryMode::Rehydrate {
                checkpoint_interval_s: interval,
            } = *mode
            else {
                continue;
            };
            // Negated conjunction: NaN anywhere (interval or the state size
            // feeding write_s) fails the feasible case and fires the deny.
            if !(write_s.is_finite() && interval.is_finite() && interval > write_s) {
                report.push(Diagnostic::new(
                    &catalog::CHECKPOINT_WRITE_OVERRUN,
                    format!("checkpoint.{name}.checkpoint_interval_s"),
                    format!(
                        "a {write_s:.2}s checkpoint write ({state_kb} KiB at {} KiB/s) cannot \
                         finish inside the {interval}s interval for {name:?}",
                        calib::STORE_THROUGHPUT_KBPS
                    ),
                ));
                // Replay arithmetic is meaningless on top of an infeasible
                // write; skip the advisory rule for this component.
                continue;
            }
            let updates = (interval / calib::STORE_UPDATE_PERIOD_S).ceil();
            let replay_s =
                (state_kb + updates * calib::STORE_UPDATE_KB) / calib::STORE_THROUGHPUT_KBPS;
            let cold_s = calib::peer_resync_service_s(name);
            if !(replay_s.is_finite() && replay_s < cold_s) {
                report.push(Diagnostic::new(
                    &catalog::CHECKPOINT_REPLAY_REGRESSIVE,
                    format!("checkpoint.{name}.cold_rederive_s"),
                    format!(
                        "worst-case replay {replay_s:.2}s is no faster than the {cold_s:.2}s \
                         cold re-derivation for {name:?}; rehydration buys nothing here"
                    ),
                ));
            }
            if !tree.components().iter().any(|c| c == name) {
                report.push(Diagnostic::new(
                    &catalog::CHECKPOINT_COMPONENT_DETACHED,
                    format!("checkpoint.{name}"),
                    format!("{name:?} has a rehydrate policy but no restart cell in the tree"),
                ));
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use rr_core::tree::TreeSpec;

    use super::*;
    use crate::config::names;
    use crate::station::TreeVariant;

    fn tree_iv() -> RestartTree {
        TreeVariant::IV.tree().unwrap()
    }

    /// The paper configuration with `name` alone rehydrating every
    /// `interval` seconds.
    fn rehydrating(name: &str, interval: f64) -> StationConfig {
        let mode = RecoveryMode::Rehydrate {
            checkpoint_interval_s: interval,
        };
        StationConfig {
            recovery_modes: BTreeMap::from([(name.to_string(), mode)]),
            ..StationConfig::paper()
        }
    }

    /// `cfg` lints clean on each of the paper's trees.
    fn assert_clean_on_every_tree(cfg: &StationConfig) {
        for variant in TreeVariant::ALL {
            let report = cfg.lint(&variant.tree().unwrap());
            assert!(report.is_clean(), "tree {variant}:\n{}", report.to_human());
        }
    }

    #[test]
    fn shipped_deadline_presets_lint_clean() {
        assert_clean_on_every_tree(&StationConfig::paper());
        assert_clean_on_every_tree(&StationConfig::hardened());
        assert_clean_on_every_tree(&StationConfig::admission());
    }

    #[test]
    fn shipped_checkpoint_preset_lints_clean() {
        assert_clean_on_every_tree(&StationConfig::checkpointed());
    }

    #[test]
    fn slow_detection_misses_the_pass_window() {
        // 256 misses in a row: 255.9 s of detection + 45 s > 300 s.
        let mut cfg = StationConfig::paper();
        cfg.fd.suspicion_threshold = 256;
        cfg.fd.suspicion_window = 256;
        let report = cfg.lint(&tree_iv());
        assert_eq!(report.codes(), vec!["RRL801"]);
        assert!(report.has_deny());
    }

    #[test]
    fn unhonorable_aging_warns() {
        let cfg = StationConfig {
            admission_capacity: 1,
            admission_window_s: 600.0,
            defer_max_age_s: 100.0, // < 600/1
            ..StationConfig::admission()
        };
        let report = cfg.lint(&tree_iv());
        assert_eq!(report.codes(), vec!["RRL802"]);
        assert!(!report.has_deny());
        // Disabled admission silences the capacity rules.
        let disabled = StationConfig {
            admission_enabled: false,
            ..cfg
        };
        assert!(disabled.lint(&tree_iv()).is_clean());
    }

    #[test]
    fn underprovisioned_queue_warns() {
        let wide = TreeSpec::cell("root")
            .with_components((0..=calib::DEFER_QUEUE_LIMIT).map(|i| format!("c{i}")))
            .build()
            .unwrap();
        let report = StationConfig::admission().lint(&wide);
        assert_eq!(report.codes(), vec!["RRL803"]);
        assert!(StationConfig::paper().lint(&wide).is_clean());
    }

    #[test]
    fn overrunning_write_denied() {
        // 16 MiB of state through a 2 MiB/s store is an 8s write; a 5s
        // interval can never drain it.
        let cfg = StationConfig {
            session_state_kb: 16.0 * 1024.0,
            ..rehydrating(names::SES, 5.0)
        };
        let report = cfg.lint(&tree_iv());
        assert_eq!(report.codes(), vec!["RRL901"]);
        assert!(report.has_deny());
        // NaN knobs fall through the same negated conjunction.
        assert!(rehydrating(names::SES, f64::NAN)
            .lint(&tree_iv())
            .fired("RRL901"));
        let poisoned = StationConfig {
            session_state_kb: f64::NAN,
            ..rehydrating(names::SES, 60.0)
        };
        assert!(poisoned.lint(&tree_iv()).fired("RRL901"));
    }

    #[test]
    fn regressive_replay_warns() {
        // Same 16 MiB of state with a roomy interval: the write fits, but
        // an 8s+ replay loses to str's 3.35s resync service.
        let cfg = StationConfig {
            session_state_kb: 16.0 * 1024.0,
            ..rehydrating(names::SES, 600.0)
        };
        let report = cfg.lint(&tree_iv());
        assert_eq!(report.codes(), vec!["RRL902"]);
        assert!(!report.has_deny());
        // rtu has nothing to re-derive, so journaling it is pointless.
        assert!(rehydrating(names::RTU, 60.0)
            .lint(&tree_iv())
            .fired("RRL902"));
    }

    #[test]
    fn detached_component_denied() {
        let tree = TreeSpec::cell("root")
            .with_component(names::RTU)
            .build()
            .unwrap();
        let report = rehydrating(names::SES, 60.0).lint(&tree);
        assert_eq!(report.codes(), vec!["RRL903"]);
        assert!(report.has_deny());
    }
}
