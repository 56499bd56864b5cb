//! The one home of the built-in audit scenarios that `rr-audit model` and
//! `rr-audit flow` run, and the `por` experiment measuring rr-flow's
//! partial-order reduction on them.

use mercury::station::TreeVariant;
use rr_model::{
    check, scenario, CheckConfig, Model, Scenario, DEFAULT_DEPTH, DEFAULT_STATE_BUDGET,
};

/// The built-in audit matrix `rr-audit model` explores and `rr-audit flow`
/// analyzes: trees I–V × both oracles × four flavours, named
/// `tree-{variant}/{oracle}/{solo,pair,admit,rehydrate}`. `solo` is one rtu
/// fault; `pair` is the correlated pair (joint cure on split variants, two
/// independent kills on unsplit ones); `admit` re-explores the pair with the
/// admission controller in the loop (any report may be deferred and later
/// admitted); `rehydrate` lets every in-flight restart complete either cold
/// or by checkpoint replay. Built from scenario text so the parser is
/// exercised too.
pub fn builtin_scenarios() -> Vec<(String, Scenario)> {
    let mut out = Vec::new();
    for variant in TreeVariant::ALL {
        let pair = if variant.is_split() {
            "fault pbcom\nfault fedr cures fedr pbcom\n"
        } else {
            "fault rtu\nfault ses\n"
        };
        for oracle in ["perfect", "naive"] {
            for (flavour, body) in [
                ("solo", "fault rtu\n".to_string()),
                ("pair", pair.to_string()),
                ("admit", format!("admission\n{pair}")),
                ("rehydrate", format!("rehydrate\n{pair}")),
            ] {
                let text = format!("tree {variant}\noracle {oracle}\n{body}");
                let sc = scenario::parse(&text)
                    .unwrap_or_else(|e| panic!("{}: {e:?}", "built-in scenario parses"));
                out.push((format!("tree-{variant}/{oracle}/{flavour}"), sc));
            }
        }
    }
    out
}

/// Builds a model of literal scenario text on one of the paper's trees.
fn model_of(variant: TreeVariant, text: &str) -> Model {
    Model::new(
        variant
            .tree()
            .unwrap_or_else(|e| panic!("{}: {e:?}", "paper tree builds")),
        &scenario::parse(text).unwrap_or_else(|e| panic!("{}: {e:?}", "scenario parses")),
    )
    .unwrap_or_else(|e| panic!("{}: {e:?}", "model builds"))
}

/// Builds the uniform pair-fault audit model (rtu and ses exist on every
/// tree variant, so the same fault set measures all five apples-to-apples).
fn pair_model(variant: TreeVariant) -> Model {
    let text = format!("tree {variant}\noracle perfect\nfault rtu\nfault ses\n");
    model_of(variant, &text)
}

/// Builds the depth-probe model: three faults on tree IV with the admission
/// controller in the loop, so deferral and batching interleavings are in
/// play — the worst case for depth.
fn probe_model() -> Model {
    let text = "tree IV\noracle perfect\nadmission\nfault rtu\nfault ses\nfault mbus\n";
    model_of(TreeVariant::IV, text)
}

/// State budget for the depth probe: small enough that both searches exhaust
/// it quickly, large enough for several iterative-deepening bounds.
const PROBE_BUDGET: u64 = 50_000;
/// Depth ceiling for the probe — far beyond what the budget admits.
const PROBE_DEPTH: usize = 64;

/// Deepest completed iteration within `budget`. On budget exhaustion the
/// checker's error carries the bound that tripped; the deepest *completed*
/// bound is the one before it.
fn max_feasible_depth(model: &Model, por: bool, budget: u64) -> u64 {
    let probe = CheckConfig {
        max_depth: PROBE_DEPTH,
        state_budget: budget,
        por,
    };
    let depth = match check(model, &probe) {
        Ok(outcome) => outcome.depth,
        Err(e) => e
            .depth
            .unwrap_or_else(|| panic!("budget error carries its depth bound: {e}"))
            .saturating_sub(1),
    };
    depth as u64
}

/// Renders the partial-order-reduction measurements as an experiment
/// section: per-tree distinct-state reduction on the pair-fault audit, and
/// how much deeper a fixed state budget reaches with the ample sets on.
/// Every number is a deterministic state count, so this section is exactly
/// reproducible (and `tests/golden/por-counts.txt` pins it in `cargo test`).
pub fn experiment(_run: crate::RunConfig) -> crate::Experiment {
    let mut exp = crate::Experiment {
        id: "por".into(),
        title: "rr-flow static independence analysis and partial-order reduction".into(),
        tables: Vec::new(),
        blocks: Vec::new(),
        observations: Vec::new(),
    };
    exp.blocks.push(
        "Not a paper table: this measures the model checker itself. rr-flow\n\
         derives per-action footprints from the §3.2 tree algebra (escalation\n\
         chain overlap = the LCA merge promotion = interference), and the\n\
         checker explores a single ample action where footprints are disjoint\n\
         while still probing every successor for safety. Both sides of every\n\
         number below are deterministic state counts, so a golden pins them\n\
         in cargo test with zero machine noise. The reduced search pays\n\
         for extra plies of depth out of the states the ample sets no longer\n\
         visit — the measurement behind raising the checker's DEFAULT_DEPTH\n\
         from 13 to 16 at an unchanged state budget.\n"
            .to_string(),
    );

    let mut table = crate::tables::Table::new(
        format!(
            "Distinct states, rtu+ses pair-fault audit at depth {DEFAULT_DEPTH} (perfect oracle)"
        ),
        vec![
            "Tree".into(),
            "Full".into(),
            "Reduced".into(),
            "Reduction".into(),
        ],
    );
    let full_cfg = CheckConfig {
        max_depth: DEFAULT_DEPTH,
        state_budget: DEFAULT_STATE_BUDGET,
        por: false,
    };
    let reduced_cfg = CheckConfig {
        por: true,
        ..full_cfg
    };
    let mut min_ratio = f64::INFINITY;
    for variant in TreeVariant::ALL {
        let model = pair_model(variant);
        let full = check(&model, &full_cfg)
            .unwrap_or_else(|e| panic!("{}: {}", "full exploration fits budget", e.message));
        let reduced = check(&model, &reduced_cfg)
            .unwrap_or_else(|e| panic!("{}: {}", "reduced exploration fits budget", e.message));
        assert!(
            full.violation.is_none() && reduced.violation.is_none(),
            "tree {variant}: the audit pair scenario must be clean"
        );
        let ratio = full.distinct_states as f64 / reduced.distinct_states as f64;
        min_ratio = min_ratio.min(ratio);
        table.push_row(vec![
            variant.to_string(),
            full.distinct_states.to_string(),
            reduced.distinct_states.to_string(),
            format!("{ratio:.2}x"),
        ]);
    }
    exp.tables.push(table);
    exp.observations.push((
        "rr-flow reduction >= 5x distinct states on every tree (1=yes)".into(),
        1.0,
        f64::from(u8::from(min_ratio >= 5.0)),
    ));

    let model = probe_model();
    let full_depth = max_feasible_depth(&model, false, PROBE_BUDGET);
    let reduced_depth = max_feasible_depth(&model, true, PROBE_BUDGET);
    let mut probe = crate::tables::Table::new(
        format!(
            "Depth reached under a fixed {}k-state budget (tree IV, admission, rtu+ses+mbus)",
            PROBE_BUDGET / 1000
        ),
        vec!["Exploration".into(), "Deepest completed bound".into()],
    );
    probe.push_row(vec!["full".into(), full_depth.to_string()]);
    probe.push_row(vec![
        "reduced (ample sets)".into(),
        reduced_depth.to_string(),
    ]);
    exp.tables.push(probe);
    exp.observations.push((
        "deeper audit at fixed 50k-state budget with reduction on (1=yes)".into(),
        1.0,
        f64::from(u8::from(reduced_depth > full_depth)),
    ));
    exp
}

#[cfg(test)]
mod tests {
    use super::*;
    use mercury::station::TreeVariant;
    use rr_model::{analyze, lint_flow};

    #[test]
    fn builtin_pair_scenarios_lint_clean() {
        for variant in TreeVariant::ALL {
            let analysis = analyze(&pair_model(variant));
            assert_eq!(analysis.faults.len(), 2);
            assert!(
                lint_flow(&analysis).is_clean(),
                "tree {variant} pair scenario should lint clean"
            );
        }
    }

    #[test]
    fn por_assume_override_is_denied() {
        let text = "tree IV\nadmission\nfault rtu\nfault ses\n\
                    por-assume suspects-independent\n";
        let model = model_of(TreeVariant::IV, text);
        let report = lint_flow(&analyze(&model));
        assert!(report.fired("RRL953"));
        assert!(report.has_deny());
    }

    #[test]
    fn por_experiment_observations_all_hold() {
        let exp = experiment(crate::RunConfig::default());
        assert_eq!(exp.id, "por");
        assert_eq!(exp.tables.len(), 2);
        let drift = crate::golden::compare_or_record("por-counts.txt", &exp.render());
        assert!(drift.is_none(), "{}", drift.unwrap_or_default());
        for (label, paper, measured) in &exp.observations {
            assert_eq!(
                measured, paper,
                "{label}: expected {paper}, measured {measured}"
            );
        }
    }
}
