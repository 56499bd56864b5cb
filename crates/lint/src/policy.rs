//! Restart-policy soundness lints (`RRL1xx`).

use rr_core::tree::RestartTree;

use crate::catalog;
use crate::diag::{Diagnostic, Report};

/// Give-up thresholds beyond these are treated as "quarantine unreachable in
/// practice" ([`RRL104`](catalog::POLICY_QUARANTINE_UNREACHABLE)).
const MAX_SANE_ESCALATION: u32 = 1_000;
const MAX_SANE_RESTARTS_PER_WINDOW: u32 = 10_000;

/// The restart-policy knobs: the one definition, embedded in mercury's
/// `StationConfig` as its `policy` field (REC builds its
/// [`RestartPolicy`](rr_core::policy::RestartPolicy) from it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyParams {
    /// How many times a cure for the same failure may escalate (fail and be
    /// retried with a wider restart group) before REC gives up and
    /// quarantines the component.
    pub escalation_limit: u32,
    /// Restart-storm budget: the most restarts any single cell may receive
    /// within [`restart_window_s`](Self::restart_window_s) before REC gives
    /// up and quarantines it.
    pub max_restarts_per_window: u32,
    /// Length of the restart-storm rate-limit window, in seconds.
    pub restart_window_s: f64,
    /// Base delay of the exponential backoff between successive restarts of
    /// the same cell, in seconds: attempt *n* within the rate-limit window
    /// waits `base · 2^(n−1)`, capped by
    /// [`backoff_cap_s`](Self::backoff_cap_s). 0 disables backoff (the
    /// paper's immediate-restart behaviour).
    pub backoff_base_s: f64,
    /// Upper bound on the exponential restart backoff, in seconds.
    pub backoff_cap_s: f64,
}

/// Lints a restart policy: escalation must be able to reach the root of
/// `tree` ([`RRL101`]), backoff must be monotone ([`RRL102`]), the restart
/// storm budget must be enforceable ([`RRL103`]), and quarantine should be
/// reachable in practice ([`RRL104`]).
///
/// [`RRL101`]: catalog::POLICY_ESCALATION_SHORT
/// [`RRL102`]: catalog::POLICY_BACKOFF_REGRESSIVE
/// [`RRL103`]: catalog::POLICY_STORM_UNBOUNDED
/// [`RRL104`]: catalog::POLICY_QUARANTINE_UNREACHABLE
pub fn lint_policy(params: &PolicyParams, tree: &RestartTree) -> Report {
    let mut report = Report::new();
    // The escalation chain climbs the component's restart path one cell per
    // exhausted limit; it terminates at the root only if the limit covers
    // the longest path.
    let deepest = tree
        .components()
        .iter()
        .filter_map(|c| tree.restart_path(c).ok())
        .map(|path| path.len())
        .max();
    if let Some(deepest) = deepest {
        if (params.escalation_limit as usize) < deepest {
            report.push(Diagnostic::new(
                &catalog::POLICY_ESCALATION_SHORT,
                "policy.escalation_limit",
                format!(
                    "escalation limit {} is below the longest restart path \
                     ({} cells), so escalation gives up before the \
                     whole-system restart",
                    params.escalation_limit, deepest
                ),
            ));
        }
    }
    let base = params.backoff_base_s;
    let cap = params.backoff_cap_s;
    if !base.is_finite() || !cap.is_finite() || base < 0.0 || cap < base {
        report.push(Diagnostic::new(
            &catalog::POLICY_BACKOFF_REGRESSIVE,
            "policy.backoff",
            format!("backoff base {base}s with cap {cap}s can shrink between retries"),
        ));
    }
    if params.max_restarts_per_window == 0
        || !params.restart_window_s.is_finite()
        || params.restart_window_s <= 0.0
    {
        report.push(Diagnostic::new(
            &catalog::POLICY_STORM_UNBOUNDED,
            "policy.rate_limit",
            format!(
                "{} restarts per {}s window is not an enforceable storm budget",
                params.max_restarts_per_window, params.restart_window_s
            ),
        ));
    }
    if params.escalation_limit > MAX_SANE_ESCALATION
        || params.max_restarts_per_window > MAX_SANE_RESTARTS_PER_WINDOW
    {
        report.push(Diagnostic::new(
            &catalog::POLICY_QUARANTINE_UNREACHABLE,
            "policy",
            format!(
                "escalation limit {} / restart budget {} are large enough \
                 that a hard failure is retried effectively forever",
                params.escalation_limit, params.max_restarts_per_window
            ),
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_core::policy::RestartPolicy;
    use rr_core::tree::TreeSpec;

    fn deep_tree() -> RestartTree {
        TreeSpec::cell("root")
            .with_child(
                TreeSpec::cell("mid")
                    .with_component("m")
                    .with_child(TreeSpec::cell("leaf").with_component("l")),
            )
            .build()
            .unwrap()
    }

    /// The knobs of the default [`RestartPolicy`].
    fn sane() -> PolicyParams {
        let policy = RestartPolicy::new();
        let (max_restarts, window) = policy.rate_limit();
        let (base, cap) = policy.backoff();
        PolicyParams {
            escalation_limit: policy.escalation_limit(),
            max_restarts_per_window: max_restarts,
            restart_window_s: window.as_secs_f64(),
            backoff_base_s: base.as_secs_f64(),
            backoff_cap_s: cap.as_secs_f64(),
        }
    }

    #[test]
    fn default_policy_is_clean_against_shipped_depths() {
        assert!(lint_policy(&sane(), &deep_tree()).is_clean());
    }

    #[test]
    fn short_escalation_denied() {
        // leaf -> mid -> root is 3 cells; a limit of 2 strands escalation.
        let params = PolicyParams {
            escalation_limit: 2,
            ..sane()
        };
        let report = lint_policy(&params, &deep_tree());
        assert_eq!(report.codes(), vec!["RRL101"]);
        assert!(report.has_deny());
    }

    #[test]
    fn regressive_backoff_denied() {
        let params = PolicyParams {
            backoff_base_s: 5.0,
            backoff_cap_s: 1.0,
            ..sane()
        };
        assert_eq!(lint_policy(&params, &deep_tree()).codes(), vec!["RRL102"]);
        let nan = PolicyParams {
            backoff_cap_s: f64::NAN,
            ..sane()
        };
        assert!(lint_policy(&nan, &deep_tree()).fired("RRL102"));
    }

    #[test]
    fn unbounded_storm_denied() {
        let zero_budget = PolicyParams {
            max_restarts_per_window: 0,
            ..sane()
        };
        assert_eq!(
            lint_policy(&zero_budget, &deep_tree()).codes(),
            vec!["RRL103"]
        );
        let zero_window = PolicyParams {
            restart_window_s: 0.0,
            ..sane()
        };
        assert!(lint_policy(&zero_window, &deep_tree()).fired("RRL103"));
    }

    #[test]
    fn unreachable_quarantine_warns() {
        let params = PolicyParams {
            escalation_limit: 1_000_000,
            ..sane()
        };
        let report = lint_policy(&params, &deep_tree());
        assert_eq!(report.codes(), vec!["RRL104"]);
        assert!(!report.has_deny());
    }
}
