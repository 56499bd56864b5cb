#![allow(clippy::disallowed_methods)]
//! Cross-crate integration tests pinning the paper's headline results.
//!
//! These use few trials (speed) and assert the *shape* of the results —
//! orderings, ratios, crossovers — rather than exact values; the full
//! 100-trial reproduction lives in the `repro` binary and EXPERIMENTS.md.

use mercury::config::{names, StationConfig};
use mercury::station::TreeVariant;
use rr_core::analysis::{expected_mode_recovery_s, expected_system_mttr_s, OracleQuality};
use rr_core::model::FailureMode;
use rr_core::optimize::{find_group, optimize_tree, OptimizerConfig};
use rr_core::TreeSpec;
use rr_harness::experiments::{measure_cell, RunConfig};
use rr_harness::OracleKind;

fn run() -> RunConfig {
    RunConfig {
        trials: 5,
        seed: 99,
    }
}

#[test]
fn tree_ii_beats_tree_i_for_every_component() {
    // §4.1: depth augmentation lowers MTTR for every failed component.
    for comp in [
        names::MBUS,
        names::SES,
        names::STR,
        names::RTU,
        names::FEDRCOM,
    ] {
        let i = measure_cell(TreeVariant::I, OracleKind::Perfect, comp, false, run());
        let ii = measure_cell(TreeVariant::II, OracleKind::Perfect, comp, false, run());
        assert!(
            ii.mean < i.mean,
            "{comp}: tree II {:.2}s must beat tree I {:.2}s",
            ii.mean,
            i.mean
        );
    }
}

#[test]
fn splitting_fedrcom_pays_off_for_frequent_failures() {
    // §4.2: fedr (frequent) recovers ~4x faster than fedrcom did; pbcom
    // (rare) is no worse than fedrcom.
    let fedrcom = measure_cell(
        TreeVariant::II,
        OracleKind::Perfect,
        names::FEDRCOM,
        false,
        run(),
    );
    let fedr = measure_cell(
        TreeVariant::III,
        OracleKind::Perfect,
        names::FEDR,
        false,
        run(),
    );
    let pbcom = measure_cell(
        TreeVariant::III,
        OracleKind::Perfect,
        names::PBCOM,
        false,
        run(),
    );
    assert!(
        fedr.mean < fedrcom.mean / 3.0,
        "fedr {:.2}s vs fedrcom {:.2}s",
        fedr.mean,
        fedrcom.mean
    );
    assert!(pbcom.mean < fedrcom.mean * 1.1);
}

#[test]
fn consolidation_beats_sequential_resync() {
    // §4.3: tree IV recovers ses/str failures faster than tree III.
    for comp in [names::SES, names::STR] {
        let iii = measure_cell(TreeVariant::III, OracleKind::Perfect, comp, false, run());
        let iv = measure_cell(TreeVariant::IV, OracleKind::Perfect, comp, false, run());
        assert!(
            iv.mean < iii.mean - 2.0,
            "{comp}: tree IV {:.2}s vs tree III {:.2}s",
            iv.mean,
            iii.mean
        );
    }
}

#[test]
fn promotion_insures_against_the_faulty_oracle() {
    // §4.4: with a 30% faulty oracle, tree V beats tree IV on the
    // correlated pbcom failure; with a perfect oracle tree IV is fine.
    let big = RunConfig {
        trials: 15,
        seed: 7,
    };
    let iv_faulty = measure_cell(
        TreeVariant::IV,
        OracleKind::Faulty(0.3),
        names::PBCOM,
        true,
        big,
    );
    let v_faulty = measure_cell(
        TreeVariant::V,
        OracleKind::Faulty(0.3),
        names::PBCOM,
        true,
        big,
    );
    assert!(
        v_faulty.mean < iv_faulty.mean,
        "tree V {:.2}s must beat tree IV {:.2}s under the faulty oracle",
        v_faulty.mean,
        iv_faulty.mean
    );
    // Tree V's recovery is flat (no mistakes possible): tiny variance.
    assert!(v_faulty.cov < 0.05, "cov {:.3}", v_faulty.cov);
    assert!(iv_faulty.cov > v_faulty.cov);
}

#[test]
fn factor_of_four_improvement_holds() {
    // The headline claim: expected system MTTR improves ~4x from tree I to
    // tree V under the paper's failure mix.
    let cfg = StationConfig::paper();
    let cost = cfg.cost_model();
    let tree_i = TreeSpec::cell("mercury")
        .with_components(names::SPLIT)
        .build()
        .unwrap();
    let model = cfg.paper_failure_model();
    let mttr_i = expected_system_mttr_s(&tree_i, &model, &cost, OracleQuality::Perfect).unwrap();
    let mttr_v = expected_system_mttr_s(
        &TreeVariant::V.tree().expect("paper tree builds"),
        &model,
        &cost,
        OracleQuality::Perfect,
    )
    .unwrap();
    let factor = mttr_i / mttr_v;
    assert!(
        (3.0..6.0).contains(&factor),
        "improvement factor {factor:.2} (paper claims ~4x)"
    );
}

#[test]
fn analytic_model_matches_simulation() {
    // The closed form of rr_core::analysis predicts the simulated means
    // within 10% for representative cells.
    let cfg = StationConfig::paper();
    let cost = cfg.cost_model();
    let cases = [
        (
            TreeVariant::II,
            names::RTU,
            false,
            OracleKind::Perfect,
            OracleQuality::Perfect,
        ),
        (
            TreeVariant::III,
            names::SES,
            false,
            OracleKind::Perfect,
            OracleQuality::Perfect,
        ),
        (
            TreeVariant::IV,
            names::SES,
            false,
            OracleKind::Perfect,
            OracleQuality::Perfect,
        ),
        (
            TreeVariant::V,
            names::PBCOM,
            true,
            OracleKind::Faulty(0.3),
            OracleQuality::Faulty { undershoot: 0.3 },
        ),
    ];
    for (variant, comp, correlated, kind, quality) in cases {
        let sim = measure_cell(variant, kind, comp, correlated, run());
        let mode = if correlated {
            FailureMode::correlated("joint", comp, [names::FEDR, names::PBCOM], 1.0).unwrap()
        } else {
            FailureMode::solo("solo", comp, 1.0).unwrap()
        };
        let analytic = expected_mode_recovery_s(
            &variant.tree().expect("paper tree builds"),
            &mode,
            &cost,
            quality,
        )
        .unwrap();
        let rel = (sim.mean - analytic).abs() / analytic;
        assert!(
            rel < 0.10,
            "{variant}/{comp}: sim {:.2}s vs analytic {analytic:.2}s ({:.0}% off)",
            sim.mean,
            rel * 100.0
        );
    }
}

#[test]
fn optimizer_rederives_the_paper_trees() {
    // §7 future work, closed: hill-climbing over the paper's transformations
    // finds the ses/str consolidation and, under a faulty oracle, the tree-V
    // promotion — from the trivial tree.
    let cfg = StationConfig::paper();
    let cost = cfg.cost_model();
    let model = cfg.paper_failure_model();
    let start = TreeSpec::cell("mercury")
        .with_components(names::SPLIT)
        .build()
        .unwrap();

    let perfect = optimize_tree(
        &start,
        &model,
        &cost,
        OracleQuality::Perfect,
        OptimizerConfig::default(),
    )
    .unwrap();
    assert!(find_group(&perfect.tree, &[names::SES, names::STR]).is_some());
    assert!(find_group(&perfect.tree, &[names::FEDR]).is_some());

    let faulty = optimize_tree(
        &start,
        &model,
        &cost,
        OracleQuality::Faulty { undershoot: 0.3 },
        OptimizerConfig::default(),
    )
    .unwrap();
    let pbcom_cell = faulty.tree.cell_of_component(names::PBCOM).unwrap();
    assert_eq!(
        faulty.tree.components_under(pbcom_cell),
        vec![names::FEDR.to_string(), names::PBCOM.to_string()],
        "faulty-oracle optimum promotes pbcom over fedr (tree V):\n{}",
        faulty.tree
    );
    // The optimum is never worse than the hand-designed tree V.
    let hand_v = expected_system_mttr_s(
        &TreeVariant::V.tree().expect("paper tree builds"),
        &model,
        &cost,
        OracleQuality::Faulty { undershoot: 0.3 },
    )
    .unwrap();
    assert!(faulty.expected_mttr_s <= hand_v + 1e-9);
}

#[test]
fn mttf_mttr_group_algebra_holds_for_paper_trees() {
    // §3.2 invariants across every tree variant and failure model.
    let cfg = StationConfig::paper();
    for variant in TreeVariant::ALL {
        let tree = variant.tree().expect("paper tree builds");
        tree.validate().unwrap();
        let model = if variant.is_split() {
            cfg.paper_failure_model()
        } else {
            cfg.unsplit_failure_model()
        };
        model.validate_against(&tree).unwrap();
        // System MTTF ≤ every component MTTF.
        let sys = model.system_mttf_s().unwrap();
        for comp in tree.components() {
            if let Some(c) = model.component_mttf_s(&comp) {
                assert!(sys <= c + 1e-9, "{variant}: system {sys} vs {comp} {c}");
            }
        }
    }
}
