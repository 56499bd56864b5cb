#![allow(clippy::disallowed_methods)]
//! The shipped configuration surface must lint fully clean — not merely
//! deny-free: a warning on `StationConfig::paper()` or `hardened()` would
//! nag every user on every run, so the bar for the built-in surface is zero
//! diagnostics. Also exercises the deny gate in station construction and
//! the planner-output bridge.

use mercury::config::StationConfig;
use mercury::station::{Station, StationError, TreeVariant};
use rr_core::schedule::plan_episodes;
use rr_core::schedule::Suspicion;
use rr_core::PerfectOracle;
use rr_lint::lint_plan;
use rr_sim::check;

#[test]
fn shipped_configurations_lint_fully_clean() {
    for (name, cfg) in [
        ("paper", StationConfig::paper()),
        ("hardened", StationConfig::hardened()),
    ] {
        for variant in TreeVariant::ALL {
            let tree = variant.tree().unwrap();
            let report = cfg.lint(&tree);
            assert!(
                report.is_clean(),
                "StationConfig::{name}() × tree {variant} must have zero \
                 diagnostics (warnings included):\n{}",
                report.to_human()
            );
        }
    }
}

#[test]
fn deny_diagnostic_refuses_station_construction() {
    // An escalation limit below the tree height (RRL101) means escalation
    // can never reach the whole-system restart. `validate()` only requires
    // the limit be >= 1, so this slips past dynamic validation — exactly the
    // class of mistake the static gate exists for.
    let mut cfg = StationConfig::paper();
    cfg.policy.escalation_limit = 1;
    let err = Station::new(cfg, TreeVariant::III, Box::new(PerfectOracle::new()), 1)
        .expect_err("construction must fail");
    match &err {
        StationError::Lint(diags) => {
            assert!(
                diags.iter().any(|d| d.code() == "RRL101"),
                "expected RRL101 among {:?}",
                diags.iter().map(|d| d.code()).collect::<Vec<_>>()
            );
        }
        other => panic!("expected StationError::Lint, got {other:?}"),
    }
    let rendered = err.to_string();
    assert!(
        rendered.contains("rr-lint") && rendered.contains("RRL101"),
        "error display should carry the code: {rendered}"
    );
}

#[test]
fn warn_only_findings_do_not_block_construction() {
    // escalation_limit beyond the sane maximum is warn-severity (RRL104):
    // questionable, but the operator may know better — the station starts.
    let mut cfg = StationConfig::paper();
    cfg.policy.escalation_limit = 100_000;
    let tree = TreeVariant::III.tree().unwrap();
    let report = cfg.lint(&tree);
    assert!(report.fired("RRL104") && !report.has_deny());
    assert!(Station::new(cfg, TreeVariant::III, Box::new(PerfectOracle::new()), 1).is_ok());
}

#[test]
fn planner_output_always_lints_clean() {
    // Whatever suspicion set the oracle produces, the episode planner's
    // output must satisfy the plan lints: live cells, antichain, no
    // duplicate origins.
    check::run("mercury::planner_output_lints_clean", 128, |rng| {
        let variant = TreeVariant::ALL[rng.next_below(TreeVariant::ALL.len() as u64) as usize];
        let tree = variant.tree().unwrap();
        let components = variant.components();
        let cells = tree.cells();
        let n = 1 + rng.next_below(6) as usize;
        let mut suspicions = Vec::new();
        for _ in 0..n {
            let component = components[rng.next_below(components.len() as u64) as usize].clone();
            // Any live cell that covers the component is a legal target;
            // walk up from the component's own cell a random distance.
            let mut cell = tree
                .cell_of_component(&component)
                .expect("variant components are attached");
            for _ in 0..rng.next_below(3) {
                match tree.parent(cell) {
                    Some(p) => cell = p,
                    None => break,
                }
            }
            assert!(cells.contains(&cell));
            suspicions.push(Suspicion { component, cell });
        }
        let plan = plan_episodes(&tree, &suspicions).expect("live cells");
        let report = lint_plan(&tree, &plan);
        assert!(
            report.is_clean(),
            "planner output must lint clean for {variant} with {suspicions:?}:\n{}",
            report.to_human()
        );
    });
}
