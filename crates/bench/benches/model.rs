#![allow(clippy::disallowed_methods)]
//! Model-checker benchmarks for rr-flow's partial-order reduction: the
//! distinct-state reduction it buys on every paper tree, the wall time of a
//! reduced exploration, and how much deeper a fixed state budget reaches
//! with the ample sets on.
//!
//! The committed `BENCH_model.json` baseline pins the `reduction_ratio`
//! records (full ÷ reduced distinct states for the rtu+ses pair-fault audit
//! on trees I–V at the default depth). Both counts are deterministic, so
//! the gated ratio carries no machine-speed noise at all — any drift means
//! an ample class changed, and the CI bench-smoke step fails until the
//! baseline is regenerated deliberately (`-- --json BENCH_model.json`).

use mercury::station::TreeVariant;
use rr_bench::harness::Runner;
use rr_harness::flow::{max_feasible_depth, pair_model, probe_model, PROBE_BUDGET};
use rr_model::{check, CheckConfig, DEFAULT_DEPTH, DEFAULT_STATE_BUDGET};
use std::hint::black_box;

fn cfg(por: bool) -> CheckConfig {
    CheckConfig {
        max_depth: DEFAULT_DEPTH,
        state_budget: DEFAULT_STATE_BUDGET,
        por,
    }
}

/// Distinct-state reduction per tree, plus a timed reduced exploration.
fn bench_reduction(r: &mut Runner) {
    for variant in TreeVariant::ALL {
        let model = pair_model(variant);
        let full = check(&model, &cfg(false)).expect("full exploration fits budget");
        let reduced = check(&model, &cfg(true)).expect("reduced exploration fits budget");
        assert!(
            full.violation.is_none() && reduced.violation.is_none(),
            "tree {variant}: the audit pair scenario must be clean"
        );
        r.record_count(
            &format!("model/tree-{variant}/pair/full_distinct"),
            full.distinct_states,
        );
        r.record_count(
            &format!("model/tree-{variant}/pair/reduced_distinct"),
            reduced.distinct_states,
        );
        r.record_ratio(
            &format!("model/tree-{variant}/pair/reduction_ratio"),
            full.distinct_states,
            reduced.distinct_states,
        );
        r.bench_events(
            &format!("model/tree-{variant}/pair/reduced_states"),
            reduced.states_explored,
            || {
                black_box(
                    check(&model, &cfg(true))
                        .expect("within budget")
                        .states_explored,
                )
            },
        );
    }
}

/// Depth-vs-budget probe: a three-fault overload scenario (admission
/// controller in the loop) on tree IV, asking how deep a fixed 50k-state
/// budget reaches with the reduction off and on. This is the measurement
/// behind raising `DEFAULT_DEPTH` from 13 to 16: the reduced search pays
/// for the extra depth out of the states the ample sets no longer visit.
fn bench_depth_probe(r: &mut Runner) {
    let model = probe_model();
    let full_depth = max_feasible_depth(&model, false, PROBE_BUDGET);
    let reduced_depth = max_feasible_depth(&model, true, PROBE_BUDGET);
    r.record_count("model/tree-IV/overload3/depth_at_50k_full", full_depth);
    r.record_count(
        "model/tree-IV/overload3/depth_at_50k_reduced",
        reduced_depth,
    );
    assert!(
        reduced_depth >= full_depth,
        "the reduction must never reach shallower than full exploration \
         ({reduced_depth} vs {full_depth})"
    );
}

fn main() {
    let mut r = Runner::from_env();
    bench_reduction(&mut r);
    bench_depth_probe(&mut r);
    r.finish();
}
