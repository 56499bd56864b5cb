//! The checker's own feasibility and soundness lints, emitted as rr-lint
//! diagnostics: exploration bounds (`RRL7xx`) and the rr-flow dependence
//! table (`RRL95x`). They read this crate's types directly, so what is
//! linted is what the checker runs.
//!
//! `rr-model` explores every interleaving of a scenario's protocol steps up
//! to a depth bound, inside a hard state budget. Whether that exploration is
//! *feasible* — and whether the configuration stays within what the checker
//! actually verified — is a static property of the configuration: a
//! scenario whose state space dwarfs the budget aborts unverified, and a
//! station whose plan queue can grow deeper than the checked bound runs
//! merge logic no exploration ever covered.
//!
//! The partial-order reduction is driven by the statically computed
//! dependence table of [`FlowAnalysis`]: two actions are independent iff
//! their component footprints are disjoint under the §3.2 tree algebra, and
//! the checker may then prune interleavings that only permute independent
//! actions. That machinery is sound only if the table has the right *shape*
//! — square, symmetric, reflexive — and it is only *useful* if the fault set
//! does not interfere so densely that every suspicion order merges to the
//! same ancestor anyway. A cure that sits beyond the escalation limit makes
//! the fault's terminal actions dead letters in any bounded run.

use rr_lint::{catalog, Diagnostic, Report};

use crate::checker::CheckConfig;
use crate::flow::FlowAnalysis;
use crate::CHECKED_QUEUE_BOUND;

/// `base^exp`, saturating at `u64::MAX`.
fn sat_pow(base: u64, exp: usize) -> u64 {
    let mut out: u64 = 1;
    for _ in 0..exp {
        out = match out.checked_mul(base) {
            Some(v) => v,
            None => return u64::MAX,
        };
    }
    out
}

/// A conservative estimate of the states the checker must visit. Two bounds
/// hold simultaneously and the exploration pays the *smaller*:
///
/// * **trace bound** — at most `branching^depth` prefixes exist, where the
///   branching factor counts one injection and one suspicion per fault, one
///   batch suspicion, one completion and one confirmation per component's
///   episode, and the epoch rollover;
/// * **signature bound** — canonical-state dedup caps distinct states by the
///   signature space: ~6 status/suspicion combinations per fault times ~4
///   recorded-restart counts per component.
fn estimated_states(faults: usize, components: usize, depth: usize) -> u64 {
    let branching = (2 * faults + 2 * components + 2) as u64;
    let traces = sat_pow(branching, depth);
    let signatures = sat_pow(6, faults).saturating_mul(sat_pow(4, components));
    traces.min(signatures)
}

/// Lints an exploration of `faults` faults over a tree of `components`
/// components under `cfg`: the estimated state space must fit the state
/// budget ([`RRL701`]), and `plan_queue_depth`, the deepest episode-plan
/// queue the configuration can produce (its widest restart-cell antichain),
/// must stay within [`CHECKED_QUEUE_BOUND`] ([`RRL702`]).
///
/// [`RRL701`]: catalog::MODEL_EXPLORATION_INFEASIBLE
/// [`RRL702`]: catalog::MODEL_QUEUE_UNCHECKED
pub fn lint_model_bounds(
    faults: usize,
    components: usize,
    cfg: &CheckConfig,
    plan_queue_depth: usize,
) -> Report {
    let mut report = Report::new();
    let estimate = estimated_states(faults, components, cfg.max_depth);
    if estimate > cfg.state_budget {
        report.push(Diagnostic::new(
            &catalog::MODEL_EXPLORATION_INFEASIBLE,
            "model.bounds",
            format!(
                "{faults} fault(s) over {components} component(s) at depth {} give on the \
                 order of {} states, over the {}-state budget — the \
                 exploration would abort unverified",
                cfg.max_depth,
                if estimate == u64::MAX {
                    "2^64".to_string()
                } else {
                    estimate.to_string()
                },
                cfg.state_budget
            ),
        ));
    }
    if plan_queue_depth > CHECKED_QUEUE_BOUND {
        report.push(Diagnostic::new(
            &catalog::MODEL_QUEUE_UNCHECKED,
            "model.plan_queue",
            format!(
                "the configuration can queue {plan_queue_depth} simultaneous suspicions but \
                 the model checker verified merges only up to {CHECKED_QUEUE_BOUND}"
            ),
        ));
    }
    report
}

/// Lints a flow-analysis report: a mutual-interference triangle degenerates
/// the reduction ([`RRL951`]), a cure beyond the escalation limit strands
/// the fault's terminal actions ([`RRL952`]), and a malformed dependence
/// table makes the ample construction unsound ([`RRL953`]).
///
/// [`RRL951`]: catalog::FLOW_INTERFERENCE_CYCLE
/// [`RRL952`]: catalog::FLOW_UNREACHABLE_ACTION
/// [`RRL953`]: catalog::FLOW_TABLE_UNSOUND
pub fn lint_flow(analysis: &FlowAnalysis) -> Report {
    let mut report = Report::new();

    let faults = &analysis.faults;
    let n = faults.len();
    let interferes = |i: usize, j: usize| {
        analysis
            .fault_interference
            .get(i)
            .and_then(|row| row.get(j))
            .copied()
            .unwrap_or(false)
    };
    // One diagnostic per triangle, anchored at its lexicographically first
    // corner: i < j < k with all three pairs interfering.
    for i in 0..n {
        for j in (i + 1)..n {
            if !interferes(i, j) {
                continue;
            }
            for k in (j + 1)..n {
                if interferes(i, k) && interferes(j, k) {
                    report.push(Diagnostic::new(
                        &catalog::FLOW_INTERFERENCE_CYCLE,
                        format!("flow.faults.{}", faults[i]),
                        format!(
                            "{:?}, {:?} and {:?} interfere pairwise: every \
                             suspicion order merges their episodes toward a \
                             common ancestor, so the reduction cannot prune \
                             their interleavings",
                            faults[i], faults[j], faults[k]
                        ),
                    ));
                }
            }
        }
    }

    for (component, chain) in faults.iter().zip(&analysis.chains) {
        let reachable_cure = chain
            .iter()
            .take(analysis.escalation_limit)
            .any(|&(_, covers)| covers);
        if !reachable_cure {
            report.push(Diagnostic::new(
                &catalog::FLOW_UNREACHABLE_ACTION,
                format!("flow.faults.{component}.chain"),
                format!(
                    "no cell in the first {} chain entries covers {component:?}'s cure \
                     set (chain: {}); its cured/ready actions can never fire \
                     in a bounded run",
                    analysis.escalation_limit,
                    if chain.is_empty() {
                        "empty".to_string()
                    } else {
                        chain
                            .iter()
                            .map(|(c, _)| c.as_str())
                            .collect::<Vec<_>>()
                            .join(" -> ")
                    }
                ),
            ));
        }
    }

    let templates = &analysis.templates;
    let dependent = &analysis.dependent;
    let t = templates.len();
    let square = dependent.len() == t && dependent.iter().all(|row| row.len() == t);
    if !square {
        report.push(Diagnostic::new(
            &catalog::FLOW_TABLE_UNSOUND,
            "flow.dependent".to_string(),
            format!(
                "dependence table is {}x{{{}}} but there are {t} action \
                 templates",
                dependent.len(),
                dependent
                    .iter()
                    .map(|r| r.len().to_string())
                    .collect::<Vec<_>>()
                    .join(","),
            ),
        ));
    } else {
        for a in 0..t {
            if !dependent[a][a] {
                report.push(Diagnostic::new(
                    &catalog::FLOW_TABLE_UNSOUND,
                    format!("flow.dependent.{}", templates[a]),
                    format!(
                        "{:?} is marked independent of itself; a sound \
                         reduction may drop orders, never occurrences",
                        templates[a]
                    ),
                ));
            }
            for b in (a + 1)..t {
                if dependent[a][b] != dependent[b][a] {
                    report.push(Diagnostic::new(
                        &catalog::FLOW_TABLE_UNSOUND,
                        format!("flow.dependent.{}", templates[a]),
                        format!(
                            "dependence between {:?} and {:?} is asymmetric \
                             ({} one way, {} the other)",
                            templates[a], templates[b], dependent[a][b], dependent[b][a]
                        ),
                    ));
                }
            }
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds(faults: usize, components: usize, depth: usize, plan_queue: usize) -> Report {
        let cfg = CheckConfig {
            max_depth: depth,
            ..CheckConfig::default()
        };
        lint_model_bounds(faults, components, &cfg, plan_queue)
    }

    #[test]
    fn sane_bounds_are_clean() {
        assert!(bounds(2, 6, 12, 5).is_clean());
    }

    #[test]
    fn shallow_depth_is_feasible_even_with_many_faults() {
        // The trace bound saves a wide scenario explored only a few steps.
        assert!(bounds(10, 10, 3, 5).is_clean());
    }

    #[test]
    fn oversized_state_space_fires_rrl701() {
        assert_eq!(bounds(8, 6, 40, 5).codes(), vec!["RRL701"]);
    }

    #[test]
    fn overflowing_estimate_saturates_and_fires() {
        assert!(bounds(1_000_000, 1_000_000, 10_000, 5).fired("RRL701"));
    }

    #[test]
    fn deep_plan_queue_fires_rrl702() {
        assert_eq!(bounds(2, 6, 12, 9).codes(), vec!["RRL702"]);
    }

    fn sane() -> FlowAnalysis {
        let chain = |cell: &str| vec![(cell.to_string(), true)];
        FlowAnalysis {
            faults: vec!["rtu".into(), "ses".into()],
            chains: vec![chain("R_rtu"), chain("R_[ses,str]")],
            escalation_limit: 3,
            templates: vec!["inject:rtu".into(), "inject:ses".into()],
            dependent: vec![vec![true, false], vec![false, true]],
            fault_interference: vec![vec![true, false], vec![false, true]],
        }
    }

    /// `analysis` with one more fault, curable at its first chain cell.
    fn with_fault(mut analysis: FlowAnalysis, component: &str, cell: &str) -> FlowAnalysis {
        analysis.faults.push(component.into());
        analysis.chains.push(vec![(cell.into(), true)]);
        analysis
    }

    #[test]
    fn sane_report_is_clean() {
        assert!(lint_flow(&sane()).is_clean());
    }

    #[test]
    fn interference_triangle_warns_once_per_triangle() {
        let mut analysis = with_fault(sane(), "str", "R_[ses,str]");
        analysis.fault_interference = vec![vec![true; 3]; 3];
        let report = lint_flow(&analysis);
        assert_eq!(report.codes(), vec!["RRL951"]);
        assert!(!report.has_deny());
        // Four mutually interfering faults contain four triangles.
        let mut analysis = with_fault(analysis, "mbus", "R_mbus");
        analysis.fault_interference = vec![vec![true; 4]; 4];
        assert_eq!(lint_flow(&analysis).codes().len(), 4);
    }

    #[test]
    fn pairwise_interference_without_a_triangle_is_clean() {
        // A chain of interference (rtu~ses, ses~str) is fine: the reduction
        // still serializes around the shared cell without degenerating.
        let mut analysis = with_fault(sane(), "str", "R_[ses,str]");
        analysis.fault_interference = vec![
            vec![true, true, false],
            vec![true, true, true],
            vec![false, true, true],
        ];
        assert!(lint_flow(&analysis).is_clean());
    }

    #[test]
    fn cure_beyond_escalation_limit_warns() {
        let mut analysis = sane();
        // The covering cell is the 4th chain entry; only 3 escalations fit.
        analysis.chains[0] = vec![
            ("R_rtu".into(), false),
            ("R_mid".into(), false),
            ("R_high".into(), false),
            ("mercury".into(), true),
        ];
        let report = lint_flow(&analysis);
        assert_eq!(report.codes(), vec!["RRL952"]);
        assert!(!report.has_deny());
        // An empty chain can never cure anything either.
        analysis.chains[0] = vec![];
        assert!(lint_flow(&analysis).fired("RRL952"));
    }

    #[test]
    fn malformed_table_denied() {
        // Asymmetric: the por-assume override shape.
        let mut analysis = sane();
        analysis.dependent = vec![vec![true, true], vec![false, true]];
        let report = lint_flow(&analysis);
        assert_eq!(report.codes(), vec!["RRL953"]);
        assert!(report.has_deny());
        // False diagonal.
        analysis.dependent = vec![vec![false, false], vec![false, true]];
        assert!(lint_flow(&analysis).fired("RRL953"));
        // Ragged/non-square.
        analysis.dependent = vec![vec![true, false]];
        assert!(lint_flow(&analysis).fired("RRL953"));
    }
}
