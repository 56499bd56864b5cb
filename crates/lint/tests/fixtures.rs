#![allow(clippy::disallowed_methods)]
//! One minimal failing fixture per diagnostic code.
//!
//! Every entry in the `rr_lint` catalog must be constructible: a diagnostic
//! class nobody can trigger is dead weight, and a class whose fixture stops
//! firing after a refactor has silently lost its teeth. The meta-test at the
//! bottom asserts this file covers the catalog exactly, so adding a code
//! without a fixture fails the build. The rules whose input another crate
//! owns are reached through that input: a `StationConfig` for `RRL8xx` and
//! `RRL90x`, a `CheckConfig` or `FlowAnalysis` for `RRL7xx` and `RRL95x`.

use std::collections::BTreeMap;

use mercury::config::{names, StationConfig};
use mercury::station::TreeVariant;
use rr_core::model::{FailureMode, FailureModel};
use rr_core::schedule::{plan_episodes, EpisodePlan, PlannedEpisode, Suspicion};
use rr_core::tree::{RestartTree, TreeSpec};
use rr_core::RecoveryMode;
use rr_lint::{
    catalog, lint_abs, lint_algebra, lint_fault_script, lint_fd, lint_model, lint_plan,
    lint_policy, lint_suspicions, lint_tree, lint_tree_spec, AbsDecision, AbsParams, FdParams,
    GroupClaim, MemberStat, PolicyParams, Report, ScriptContext, Severity,
};
use rr_model::{lint_flow, lint_model_bounds, CheckConfig, FlowAnalysis};

/// The code each fixture below fires, in catalog order. The meta-test
/// compares this list against the catalog itself.
const FIXTURED: &[&str] = &[
    "RRL001", "RRL002", "RRL003", "RRL004", "RRL005", "RRL101", "RRL102", "RRL103", "RRL104",
    "RRL201", "RRL202", "RRL203", "RRL211", "RRL212", "RRL213", "RRL301", "RRL302", "RRL401",
    "RRL402", "RRL403", "RRL501", "RRL502", "RRL503", "RRL504", "RRL505", "RRL601", "RRL602",
    "RRL603", "RRL701", "RRL702", "RRL801", "RRL802", "RRL803", "RRL901", "RRL902", "RRL903",
    "RRL951", "RRL952", "RRL953", "RRL971", "RRL972", "RRL973",
];

/// Asserts the report fires `code` and that the finding's severity matches
/// the catalog (deny fixtures must actually deny, warn fixtures must not).
fn assert_fires(report: &Report, code: &str) {
    assert!(
        report.fired(code),
        "expected {code}, got {:?}:\n{}",
        report.codes(),
        report.to_human()
    );
    let info = catalog::lookup(code).unwrap_or_else(|| panic!("{code} not in catalog"));
    match info.severity {
        Severity::Deny => assert!(report.has_deny(), "{code} is deny-severity"),
        Severity::Warn => {
            let diag = report
                .diagnostics()
                .iter()
                .find(|d| d.code() == code)
                .unwrap();
            assert_eq!(diag.severity(), Severity::Warn);
        }
    }
}

fn sane_policy() -> PolicyParams {
    PolicyParams {
        escalation_limit: 8,
        max_restarts_per_window: 20,
        restart_window_s: 3600.0,
        backoff_base_s: 0.5,
        backoff_cap_s: 30.0,
    }
}

fn sane_fd() -> FdParams {
    FdParams {
        ping_period_s: 1.0,
        ping_timeout_s: 0.4,
        suspicion_threshold: 2,
        suspicion_window: 4,
        beacon_period_s: 5.0,
        beacon_timeout_s: 25.0,
    }
}

fn small_tree() -> RestartTree {
    TreeSpec::cell("root")
        .with_child(
            TreeSpec::cell("R_ab")
                .with_child(TreeSpec::cell("R_a").with_component("a"))
                .with_child(TreeSpec::cell("R_b").with_component("b")),
        )
        .with_child(TreeSpec::cell("R_c").with_component("c"))
        .build()
        .unwrap()
}

fn episode(tree: &RestartTree, label: &str, origins: &[&str]) -> PlannedEpisode {
    let cell = tree
        .cells()
        .into_iter()
        .find(|&c| tree.label(c) == label)
        .unwrap();
    PlannedEpisode {
        cell,
        components: tree.components_under(cell),
        origins: origins.iter().map(|s| s.to_string()).collect(),
    }
}

// ---- RRL0xx: trees -------------------------------------------------------

#[test]
fn rrl001_tree_malformed() {
    // The same component attached to two cells only exists in spec form; the
    // invariant-preserving RestartTree API cannot express it.
    let spec = TreeSpec::cell("root")
        .with_child(TreeSpec::cell("R_a").with_component("dup"))
        .with_child(TreeSpec::cell("R_b").with_component("dup"));
    assert_fires(&lint_tree_spec(&spec), "RRL001");
}

#[test]
fn rrl002_tree_no_components() {
    let tree = TreeSpec::cell("root")
        .with_child(TreeSpec::cell("R_a"))
        .build()
        .unwrap();
    assert_fires(&lint_tree(&tree), "RRL002");
}

#[test]
fn rrl003_tree_empty_leaf() {
    let tree = TreeSpec::cell("root")
        .with_child(TreeSpec::cell("R_a").with_component("a"))
        .with_child(TreeSpec::cell("R_ghost"))
        .build()
        .unwrap();
    assert_fires(&lint_tree(&tree), "RRL003");
}

#[test]
fn rrl004_tree_duplicate_label() {
    let tree = TreeSpec::cell("root")
        .with_child(TreeSpec::cell("twin").with_component("a"))
        .with_child(TreeSpec::cell("twin").with_component("b"))
        .build()
        .unwrap();
    assert_fires(&lint_tree(&tree), "RRL004");
}

#[test]
fn rrl005_tree_redundant_cell() {
    let tree = TreeSpec::cell("root")
        .with_component("r")
        .with_child(TreeSpec::cell("shim").with_child(TreeSpec::cell("R_a").with_component("a")))
        .build()
        .unwrap();
    assert_fires(&lint_tree(&tree), "RRL005");
}

// ---- RRL1xx: restart policies --------------------------------------------

#[test]
fn rrl101_policy_escalation_short() {
    let params = PolicyParams {
        escalation_limit: 1,
        ..sane_policy()
    };
    // small_tree has a three-cell restart path (root / R_ab / R_a): one rung
    // of escalation cannot reach the root.
    assert_fires(&lint_policy(&params, &small_tree()), "RRL101");
}

#[test]
fn rrl102_policy_backoff_regressive() {
    let params = PolicyParams {
        backoff_base_s: 10.0,
        backoff_cap_s: 1.0,
        ..sane_policy()
    };
    assert_fires(&lint_policy(&params, &small_tree()), "RRL102");
}

#[test]
fn rrl103_policy_storm_unbounded() {
    let params = PolicyParams {
        max_restarts_per_window: 0,
        ..sane_policy()
    };
    assert_fires(&lint_policy(&params, &small_tree()), "RRL103");
}

#[test]
fn rrl104_policy_quarantine_unreachable() {
    let params = PolicyParams {
        escalation_limit: 100_000,
        ..sane_policy()
    };
    assert_fires(&lint_policy(&params, &small_tree()), "RRL104");
}

// ---- RRL2xx: failure models and oracle suspicions ------------------------

#[test]
fn rrl201_model_unknown_component() {
    let model =
        FailureModel::new().with_mode(FailureMode::solo("ghost-crash", "ghost", 1.0).unwrap());
    assert_fires(&lint_model(&model, &small_tree()), "RRL201");
}

#[test]
fn rrl202_model_uncovered_component() {
    let model = FailureModel::new()
        .with_mode(FailureMode::solo("a-crash", "a", 1.0).unwrap())
        .with_mode(FailureMode::solo("b-crash", "b", 1.0).unwrap());
    assert_fires(&lint_model(&model, &small_tree()), "RRL202");
}

#[test]
fn rrl203_model_empty() {
    assert_fires(&lint_model(&FailureModel::new(), &small_tree()), "RRL203");
}

#[test]
fn rrl211_suspicion_unknown_cell() {
    let tree = small_tree();
    let mut bigger = small_tree();
    let stale = bigger.add_cell(bigger.root(), "extra").unwrap();
    let s = Suspicion {
        component: "a".into(),
        cell: stale,
    };
    assert_fires(&lint_suspicions(&tree, &[s]), "RRL211");
}

#[test]
fn rrl212_suspicion_unknown_component() {
    let tree = small_tree();
    let s = Suspicion {
        component: "ghost".into(),
        cell: tree.root(),
    };
    assert_fires(&lint_suspicions(&tree, &[s]), "RRL212");
}

#[test]
fn rrl213_suspicion_cell_misses_component() {
    let tree = small_tree();
    let s = Suspicion {
        component: "a".into(),
        cell: tree.cell_of_component("c").unwrap(),
    };
    assert_fires(&lint_suspicions(&tree, &[s]), "RRL213");
}

// ---- RRL3xx: MTTF/MTTR algebra -------------------------------------------

fn claim(mttf_s: f64, mttr_s: f64) -> GroupClaim {
    GroupClaim {
        group: "R_[a,b]".into(),
        mttf_s,
        mttr_s,
        members: vec![
            MemberStat {
                name: "a".into(),
                mttf_s: 600.0,
                mttr_s: 5.0,
            },
            MemberStat {
                name: "b".into(),
                mttf_s: 3600.0,
                mttr_s: 12.0,
            },
        ],
    }
}

#[test]
fn rrl301_algebra_mttf_overclaimed() {
    // A group cannot outlive its weakest member (MTTF_G <= min MTTF_ci).
    assert_fires(&lint_algebra(&[claim(1000.0, 12.0)]), "RRL301");
}

#[test]
fn rrl302_algebra_mttr_underclaimed() {
    // A group cannot recover faster than its slowest member.
    assert_fires(&lint_algebra(&[claim(600.0, 5.0)]), "RRL302");
}

// ---- RRL4xx: episode plans -----------------------------------------------

#[test]
fn rrl401_plan_overlapping_episodes() {
    let tree = small_tree();
    let plan = EpisodePlan {
        episodes: vec![
            episode(&tree, "R_ab", &["b"]),
            episode(&tree, "R_a", &["a"]),
        ],
    };
    assert_fires(&lint_plan(&tree, &plan), "RRL401");
}

#[test]
fn rrl402_plan_unknown_cell() {
    let tree = small_tree();
    let mut bigger = small_tree();
    let stale = bigger.add_cell(bigger.root(), "extra").unwrap();
    let plan = EpisodePlan {
        episodes: vec![PlannedEpisode {
            cell: stale,
            components: vec![],
            origins: vec!["a".into()],
        }],
    };
    assert_fires(&lint_plan(&tree, &plan), "RRL402");
}

#[test]
fn rrl403_plan_duplicate_origin() {
    let tree = small_tree();
    let plan = EpisodePlan {
        episodes: vec![episode(&tree, "R_a", &["a"]), episode(&tree, "R_c", &["a"])],
    };
    assert_fires(&lint_plan(&tree, &plan), "RRL403");
}

// ---- RRL5xx: fault scripts -----------------------------------------------

fn script_ctx<'a>(fd: Option<&'a FdParams>, components: &'a [String]) -> ScriptContext<'a> {
    ScriptContext {
        components,
        infrastructure: INFRA,
        fd,
    }
}

const INFRA: &[String] = &[];

fn comps() -> Vec<String> {
    vec!["a".into(), "b".into()]
}

#[test]
fn rrl501_script_malformed() {
    let c = comps();
    let report = lint_fault_script("soon crash a", &script_ctx(None, &c));
    assert_fires(&report, "RRL501");
}

#[test]
fn rrl502_script_unknown_target() {
    let c = comps();
    let report = lint_fault_script("0 crash ghost", &script_ctx(None, &c));
    assert_fires(&report, "RRL502");
}

#[test]
fn rrl503_script_time_regression() {
    let c = comps();
    let report = lint_fault_script(
        "5000000000 crash a\n1000000000 crash b\n",
        &script_ctx(None, &c),
    );
    assert_fires(&report, "RRL503");
}

#[test]
fn rrl504_script_zombie_unobservable() {
    let beaconless = FdParams {
        beacon_timeout_s: 0.0,
        ..sane_fd()
    };
    let c = comps();
    let report = lint_fault_script("0 zombie a", &script_ctx(Some(&beaconless), &c));
    assert_fires(&report, "RRL504");
}

#[test]
fn rrl505_script_infrastructure_target() {
    let c = comps();
    let infra = vec!["fd".to_string()];
    let ctx = ScriptContext {
        components: &c,
        infrastructure: &infra,
        fd: None,
    };
    assert_fires(&lint_fault_script("0 crash fd", &ctx), "RRL505");
}

// ---- RRL6xx: failure detector timing -------------------------------------

#[test]
fn rrl601_fd_timeout_exceeds_period() {
    let params = FdParams {
        ping_period_s: 1.0,
        ping_timeout_s: 1.5,
        ..sane_fd()
    };
    assert_fires(&lint_fd(&params), "RRL601");
}

#[test]
fn rrl602_fd_window_short() {
    let params = FdParams {
        suspicion_threshold: 8,
        suspicion_window: 3,
        ..sane_fd()
    };
    assert_fires(&lint_fd(&params), "RRL602");
}

#[test]
fn rrl603_fd_beacon_window_tight() {
    let params = FdParams {
        beacon_period_s: 5.0,
        beacon_timeout_s: 10.0,
        ..sane_fd()
    };
    assert_fires(&lint_fd(&params), "RRL603");
}

// ---- RRL7xx: model-checker exploration bounds ----------------------------

#[test]
fn rrl701_model_exploration_infeasible() {
    let deep = CheckConfig {
        max_depth: 40,
        ..CheckConfig::default()
    };
    assert_fires(&lint_model_bounds(8, 6, &deep, 5), "RRL701");
}

#[test]
fn rrl702_model_queue_unchecked() {
    assert_fires(
        &lint_model_bounds(2, 6, &CheckConfig::default(), 9),
        "RRL702",
    );
}

// ---- RRL8xx: deadline/admission policy -----------------------------------

#[test]
fn rrl801_deadline_pass_infeasible() {
    // 256 consecutive misses to report: 255.9 s of detection plus the 45 s
    // restart deadline overrun the 300 s minimum pass window.
    let mut cfg = StationConfig::paper();
    cfg.fd.suspicion_threshold = 256;
    cfg.fd.suspicion_window = 256;
    assert_fires(&cfg.lint(&small_tree()), "RRL801");
}

#[test]
fn rrl802_deadline_aging_unhonorable() {
    let cfg = StationConfig {
        admission_capacity: 1,
        admission_window_s: 600.0,
        defer_max_age_s: 60.0,
        ..StationConfig::admission()
    };
    assert_fires(&cfg.lint(&small_tree()), "RRL802");
}

#[test]
fn rrl803_deadline_queue_underprovisioned() {
    // 17 components against the deferral queue's 16 entries.
    let wide = TreeSpec::cell("root")
        .with_components((0..17).map(|i| format!("c{i}")))
        .build()
        .unwrap();
    assert_fires(&StationConfig::admission().lint(&wide), "RRL803");
}

// ---- RRL9xx: checkpoint/rehydrate policy ---------------------------------

/// The restart tree of the paper's final station (tree V).
fn station_tree() -> RestartTree {
    TreeVariant::V.tree().unwrap()
}

/// The paper configuration with `component` alone rehydrating from a
/// checkpoint taken every `interval_s` seconds.
fn rehydrating(component: &str, interval_s: f64) -> StationConfig {
    let mode = RecoveryMode::Rehydrate {
        checkpoint_interval_s: interval_s,
    };
    StationConfig {
        recovery_modes: BTreeMap::from([(component.to_string(), mode)]),
        ..StationConfig::paper()
    }
}

#[test]
fn rrl901_checkpoint_write_overrun() {
    // 16 MiB through the 2 MiB/s store is an 8 s write, every 5 s.
    let cfg = StationConfig {
        session_state_kb: 16.0 * 1024.0,
        ..rehydrating(names::SES, 5.0)
    };
    assert_fires(&cfg.lint(&station_tree()), "RRL901");
}

#[test]
fn rrl902_checkpoint_replay_regressive() {
    // rtu resyncs with no peer: its cold path re-derives nothing, so no
    // replay can beat it.
    let cfg = rehydrating(names::RTU, 60.0);
    assert_fires(&cfg.lint(&station_tree()), "RRL902");
}

#[test]
fn rrl903_checkpoint_component_detached() {
    let cfg = rehydrating(names::SES, 60.0);
    assert_fires(&cfg.lint(&small_tree()), "RRL903");
}

// ---- RRL95x: action-dependence (rr-flow) soundness -----------------------

fn sane_flow() -> FlowAnalysis {
    FlowAnalysis {
        faults: vec!["a".into(), "b".into()],
        chains: vec![vec![("R_a".into(), true)], vec![("R_b".into(), true)]],
        escalation_limit: 3,
        templates: vec!["inject:a".into(), "inject:b".into()],
        dependent: vec![vec![true, false], vec![false, true]],
        fault_interference: vec![vec![true, false], vec![false, true]],
    }
}

#[test]
fn rrl951_flow_interference_cycle() {
    let mut analysis = sane_flow();
    analysis.faults.push("c".into());
    analysis.chains.push(vec![("R_c".into(), true)]);
    analysis.fault_interference = vec![vec![true; 3]; 3];
    assert_fires(&lint_flow(&analysis), "RRL951");
}

#[test]
fn rrl952_flow_unreachable_action() {
    let mut analysis = sane_flow();
    analysis.chains[0] = vec![
        ("R_a".into(), false),
        ("R_ab".into(), false),
        ("R_abc".into(), false),
        ("root".into(), true),
    ];
    assert_fires(&lint_flow(&analysis), "RRL952");
}

#[test]
fn rrl953_flow_table_unsound() {
    // The por-assume override shape: a zeroed row whose column survives.
    let mut analysis = sane_flow();
    analysis.dependent = vec![vec![true, true], vec![false, true]];
    assert_fires(&lint_flow(&analysis), "RRL953");
}

// ---- RRL97x: profitability-certification (rr-abs) soundness --------------

fn sane_abs() -> AbsParams {
    AbsParams {
        decisions: vec![AbsDecision {
            name: "promote-pbcom".into(),
            expected_verdict: "always".into(),
            verdict: "always".into(),
            profit_lo_s: 0.03,
            profit_hi_s: 4.7,
            box_dims: vec![
                ("rate:pbcom-joint".into(), 0.8, 1.2),
                ("boot:pbcom".into(), 0.8, 1.2),
            ],
            depends_fraction: 0.0,
            splits: 0,
            max_splits: 4096,
        }],
    }
}

#[test]
fn rrl971_abs_profitability_contradiction() {
    let mut params = sane_abs();
    params.decisions[0].verdict = "never".into();
    params.decisions[0].profit_lo_s = -2.0;
    params.decisions[0].profit_hi_s = -0.1;
    assert_fires(&lint_abs(&params), "RRL971");
}

#[test]
fn rrl972_abs_region_unrefinable() {
    let mut params = sane_abs();
    params.decisions[0].expected_verdict = "depends".into();
    params.decisions[0].verdict = "depends".into();
    params.decisions[0].profit_lo_s = -1.0;
    params.decisions[0].profit_hi_s = 1.0;
    params.decisions[0].depends_fraction = 0.4;
    params.decisions[0].splits = 4096;
    assert_fires(&lint_abs(&params), "RRL972");
}

#[test]
fn rrl973_abs_box_malformed() {
    let mut params = sane_abs();
    params.decisions[0].box_dims[0].1 = -0.5;
    assert_fires(&lint_abs(&params), "RRL973");
}

// ---- meta ----------------------------------------------------------------

#[test]
fn every_catalog_code_has_a_fixture() {
    let catalog_codes: Vec<&str> = catalog::CATALOG.iter().map(|c| c.code).collect();
    assert_eq!(
        catalog_codes, FIXTURED,
        "catalog and fixture list diverged: add a fixture (and list entry) \
         for every new diagnostic code"
    );
}

#[test]
fn sane_baselines_are_clean() {
    // The ..sane() baselines used above must themselves be clean, or the
    // fixtures could be firing on the baseline rather than the mutation.
    assert!(lint_policy(&sane_policy(), &small_tree()).is_clean());
    assert!(lint_fd(&sane_fd()).is_clean());
    assert!(lint_tree(&small_tree()).is_clean());
    let c = comps();
    assert!(lint_fault_script("0 crash a\n1000000000 crash b\n", &script_ctx(None, &c)).is_clean());
    assert!(lint_algebra(&[claim(600.0, 12.0)]).is_clean());
    let suspicions = vec![Suspicion::covering(&small_tree(), "a", &["a"]).unwrap()];
    assert!(lint_suspicions(&small_tree(), &suspicions).is_clean());
    let plan = plan_episodes(&small_tree(), &suspicions).unwrap();
    assert!(lint_plan(&small_tree(), &plan).is_clean());
    assert!(lint_model_bounds(2, 6, &CheckConfig::default(), 5).is_clean());
    assert!(StationConfig::paper().lint(&small_tree()).is_clean());
    assert!(StationConfig::admission().lint(&small_tree()).is_clean());
    assert!(rehydrating(names::SES, 60.0)
        .lint(&station_tree())
        .is_clean());
    assert!(lint_flow(&sane_flow()).is_clean());
    assert!(lint_abs(&sane_abs()).is_clean());
}
