#![allow(clippy::disallowed_methods)]
//! Smoke tests for the experiment harness: every experiment runs with a tiny
//! trial budget and produces coherent output (tables, observations within
//! loose tolerances, well-formed report).

use std::sync::OnceLock;

use rr_harness::experiments::{self, Experiment, RunConfig};
use rr_harness::golden::compare_or_record;
use rr_harness::report::render_markdown;

fn tiny() -> RunConfig {
    RunConfig { trials: 3, seed: 7 }
}

/// Every experiment with a trial loop, run once at [`tiny`] and shared by the
/// tests below (the golden and the shape checks read the same runs).
fn trial_loop_experiments() -> &'static [Experiment] {
    static RUNS: OnceLock<Vec<Experiment>> = OnceLock::new();
    RUNS.get_or_init(|| {
        [
            experiments::table2,
            experiments::table4,
            experiments::correlated_faults,
            experiments::endurance,
            experiments::pass_data_loss,
            experiments::ablation_oracle_sweep,
            experiments::ablation_ping_period,
        ]
        .map(|experiment| experiment(tiny()))
        .into()
    })
}

fn trial_loop_experiment(id: &str) -> &'static Experiment {
    trial_loop_experiments()
        .iter()
        .find(|exp| exp.id == id)
        .expect("a trial-loop experiment")
}

/// The rendered bytes of every trial-loop experiment are pinned: the trials
/// fan out over however many cores the machine has, and no table may depend
/// on that. Re-record with `GOLDEN_RECORD=1` after an intentional change.
#[test]
fn trial_loop_experiments_render_the_golden() {
    let actual: String = trial_loop_experiments()
        .iter()
        .map(Experiment::render)
        .collect();
    let drift = compare_or_record("experiments-t3-s7.txt", &actual);
    assert!(drift.is_none(), "{}", drift.unwrap_or_default());
}

#[test]
fn table1_validates_fault_generator() {
    let exp = experiments::table1(tiny());
    assert_eq!(exp.observations.len(), 5);
    assert!(
        exp.worst_relative_error() < 0.10,
        "worst error {:.1}%",
        exp.worst_relative_error() * 100.0
    );
}

#[test]
fn table2_reproduces_shape() {
    let exp = trial_loop_experiment("table2");
    assert_eq!(exp.observations.len(), 10);
    assert!(
        exp.worst_relative_error() < 0.10,
        "worst error {:.1}%",
        exp.worst_relative_error() * 100.0
    );
    // Tree I rows are flat; tree II rows vary per component.
    let tree_i: Vec<f64> = exp
        .observations
        .iter()
        .filter(|(l, _, _)| l.starts_with("treeI:"))
        .map(|&(_, _, m)| m)
        .collect();
    let spread = tree_i.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - tree_i.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(spread < 1.5, "tree I must be flat, spread {spread}");
}

#[test]
fn figures_render_all_trees() {
    let exp = experiments::figures(tiny());
    // Figure 2 + trees I-V.
    assert_eq!(exp.blocks.len(), 6);
    assert!(exp.blocks.iter().any(|b| b.contains("R_[ses,str]")));
    let table = &exp.tables[0];
    assert_eq!(table.rows().len(), 5);
}

#[test]
fn headline_improvement_factor_in_range() {
    let exp = experiments::headline(tiny());
    let (_, paper, measured) = exp
        .observations
        .iter()
        .find(|(l, _, _)| l == "improvement-factor")
        .expect("factor observation");
    assert_eq!(*paper, 4.0);
    assert!((3.0..6.0).contains(measured), "factor {measured}");
}

#[test]
fn oracle_sweep_has_crossover_shape() {
    let exp = trial_loop_experiment("ablation-oracle");
    let table = &exp.tables[0];
    // At p=0 the trees tie (tree V is never better with a perfect oracle);
    // for p>0 tree V wins every row.
    for row in table.rows() {
        assert_eq!(row[3], "true", "V must win or tie at p={}", row[0]);
    }
}

#[test]
fn report_renders_everything() {
    let exps = vec![experiments::figures(tiny()), experiments::headline(tiny())];
    let md = render_markdown(&exps, "smoke");
    assert!(md.contains("# EXPERIMENTS"));
    assert!(md.contains("## figures"));
    assert!(md.contains("## headline"));
    assert!(md.contains("improvement-factor"));
    // Tree drawings are fenced.
    assert!(md.contains("```text"));
}

#[test]
fn optimizer_ablation_rederives_consolidation() {
    let exp = experiments::ablation_optimizer(tiny());
    assert_eq!(exp.observations.len(), 2);
    for (_, want, got) in &exp.observations {
        assert_eq!(want, got, "optimizer must find the [ses,str] group");
    }
}

/// `repro all --report` regenerates EXPERIMENTS.md section by section, so an
/// experiment missing from `all` silently deletes its section: `all` must
/// run exactly the experiments in the table, each under its table name.
#[test]
fn all_runs_exactly_the_experiments_table() {
    let ran: Vec<String> = experiments::all(RunConfig { trials: 1, seed: 7 })
        .into_iter()
        .map(|exp| exp.id)
        .collect();
    let table: Vec<&str> = experiments::EXPERIMENTS
        .iter()
        .map(|(name, _)| *name)
        .collect();
    assert_eq!(ran, table);
    assert!(table.contains(&"abs"), "abs fell out of `all` once before");
}
