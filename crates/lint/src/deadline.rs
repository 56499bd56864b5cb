//! Deadline/admission-policy feasibility lints (`RRL8xx`).
//!
//! The deadline-aware admission controller (PR 6) promises three things: a
//! recovery admitted against a pass deadline can finish before the pass, a
//! deferred recovery that ages out is actually admitted, and a first report
//! of a faulty component is never shed. Each promise has a static
//! feasibility condition on the configuration; these lints check them before
//! the station runs.

use rr_core::tree::RestartTree;

use crate::catalog;
use crate::diag::{Diagnostic, Report};

/// The admission-control and deadline inputs the linter reasons about: a
/// lint input, not a configuration type, because mercury fills it from its
/// admission knobs, its calibration constants and the detection latency it
/// derives from the FD timing.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadlineParams {
    /// Whether the admission controller is switched on. The capacity/aging
    /// lints only apply when it is; the pass-feasibility lint always does.
    pub admission_enabled: bool,
    /// Restart launches admitted per capacity window.
    pub admission_capacity: u32,
    /// Length of the capacity window, in seconds.
    pub admission_window_s: f64,
    /// Deferral-queue retry period, in seconds.
    pub admission_retry_s: f64,
    /// Age at which a deferred restart runs unconditionally, in seconds.
    pub defer_max_age_s: f64,
    /// Advisory deferral-queue bound (entries, one per component).
    pub defer_queue_limit: usize,
    /// Shortest pass window the station commits to serving, in seconds.
    pub min_pass_window_s: f64,
    /// REC's per-restart completion deadline, in seconds.
    pub restart_deadline_s: f64,
    /// Mean failure-to-report detection latency, in seconds.
    pub mean_detection_s: f64,
}

/// Lints the deadline/admission policy: a worst-case recovery must fit
/// inside the shortest committed pass window ([`RRL801`]), the admitted
/// spacing must honour the aging promise ([`RRL802`]), and the deferral
/// queue must hold one entry per component ([`RRL803`]). Pass `None` for
/// `tree` to check only the tree-independent rules.
///
/// [`RRL801`]: catalog::DEADLINE_PASS_INFEASIBLE
/// [`RRL802`]: catalog::DEADLINE_AGING_UNHONORABLE
/// [`RRL803`]: catalog::DEADLINE_QUEUE_UNDERPROVISIONED
pub fn lint_deadline(params: &DeadlineParams, tree: Option<&RestartTree>) -> Report {
    let mut report = Report::new();
    // Detection plus the restart deadline bounds one worst-case recovery
    // episode end to end; if that exceeds the shortest pass window, even an
    // ideally scheduled recovery started at window open misses the pass.
    let worst_recovery = params.mean_detection_s + params.restart_deadline_s;
    if !params.min_pass_window_s.is_finite()
        || params.min_pass_window_s <= 0.0
        || worst_recovery >= params.min_pass_window_s
    {
        report.push(Diagnostic::new(
            &catalog::DEADLINE_PASS_INFEASIBLE,
            "deadline.min_pass_window_s",
            format!(
                "worst-case recovery (detection {:.1}s + restart deadline {:.1}s) does \
                 not fit inside the {}s minimum pass window",
                params.mean_detection_s, params.restart_deadline_s, params.min_pass_window_s
            ),
        ));
    }
    if params.admission_enabled {
        // Under a saturated capacity window, deferred entries drain one per
        // `window / capacity` seconds; an aging bound below that spacing is
        // a promise the drain timer cannot keep.
        let spacing = params.admission_window_s / f64::from(params.admission_capacity.max(1));
        if spacing.is_finite() && spacing > params.defer_max_age_s {
            report.push(Diagnostic::new(
                &catalog::DEADLINE_AGING_UNHONORABLE,
                "deadline.defer_max_age_s",
                format!(
                    "admitted-restart spacing {spacing:.1}s (window {}s / capacity {}) \
                     exceeds the {}s aging bound",
                    params.admission_window_s, params.admission_capacity, params.defer_max_age_s
                ),
            ));
        }
        if let Some(tree) = tree {
            let components = tree.components().len();
            if params.defer_queue_limit < components {
                report.push(Diagnostic::new(
                    &catalog::DEADLINE_QUEUE_UNDERPROVISIONED,
                    "deadline.defer_queue_limit",
                    format!(
                        "deferral queue bound {} is below the tree's {} components",
                        params.defer_queue_limit, components
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

    fn sane() -> DeadlineParams {
        DeadlineParams {
            admission_enabled: true,
            admission_capacity: 2,
            admission_window_s: 120.0,
            admission_retry_s: 5.0,
            defer_max_age_s: 240.0,
            defer_queue_limit: 16,
            min_pass_window_s: 300.0,
            restart_deadline_s: 45.0,
            mean_detection_s: 0.9,
        }
    }

    fn tree() -> RestartTree {
        TreeSpec::cell("root")
            .with_component("a")
            .with_child(TreeSpec::cell("leaf").with_components(["b", "c"]))
            .build()
            .unwrap()
    }

    #[test]
    fn sane_params_are_clean() {
        assert!(lint_deadline(&sane(), Some(&tree())).is_clean());
        assert!(lint_deadline(&sane(), None).is_clean());
    }

    #[test]
    fn infeasible_pass_window_denied() {
        let params = DeadlineParams {
            min_pass_window_s: 40.0, // < 0.9 + 45.0
            ..sane()
        };
        let report = lint_deadline(&params, None);
        assert_eq!(report.codes(), vec!["RRL801"]);
        assert!(report.has_deny());
        let nan = DeadlineParams {
            min_pass_window_s: f64::NAN,
            ..sane()
        };
        assert!(lint_deadline(&nan, None).fired("RRL801"));
    }

    #[test]
    fn unhonorable_aging_warns() {
        let params = DeadlineParams {
            admission_capacity: 1,
            admission_window_s: 600.0,
            defer_max_age_s: 100.0, // < 600/1
            ..sane()
        };
        let report = lint_deadline(&params, None);
        assert_eq!(report.codes(), vec!["RRL802"]);
        assert!(!report.has_deny());
        // Disabled admission silences the capacity rules.
        let disabled = DeadlineParams {
            admission_enabled: false,
            ..params
        };
        assert!(lint_deadline(&disabled, None).is_clean());
    }

    #[test]
    fn underprovisioned_queue_warns_only_with_tree() {
        let params = DeadlineParams {
            defer_queue_limit: 2, // tree has 3 components
            ..sane()
        };
        assert_eq!(
            lint_deadline(&params, Some(&tree())).codes(),
            vec!["RRL803"]
        );
        assert!(lint_deadline(&params, None).is_clean());
    }
}
