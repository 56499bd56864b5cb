#![allow(clippy::disallowed_methods)]
//! Integration of the `rr-model` checker with the harness surface:
//!
//! * every golden scenario's recorded telemetry stream passes the
//!   happens-before verifier, and enabling telemetry does not perturb the
//!   golden trace (telemetry is observation-only);
//! * the seeded-violation fixtures under the repository-level
//!   `tests/model-fixtures/` are rejected with a *minimal* counterexample
//!   whose trace replays to the same violation (that they are rejected at
//!   all, and that their clean twins pass, is `audit_cli.rs`'s table).

use std::fs;
use std::path::PathBuf;

use mercury::station::TreeVariant;
use rr_harness::golden::{diff, golden_dir, golden_scenarios, run_golden_scenario_telemetry};
use rr_model::{check, hb, replay, scenario, CheckConfig, Model};

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/model-fixtures")
}

fn load_model(file: &str) -> (Model, CheckConfig) {
    let path = fixtures_dir().join(file);
    let text = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()));
    let sc = scenario::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
    let variant: TreeVariant = sc.tree.parse().unwrap_or_else(|e| panic!("{file}: {e}"));
    let cfg = CheckConfig {
        max_depth: sc.depth.unwrap_or(rr_model::DEFAULT_DEPTH),
        ..CheckConfig::default()
    };
    let model = Model::new(variant.tree().expect("variant builds"), &sc)
        .unwrap_or_else(|e| panic!("{file}: {e}"));
    (model, cfg)
}

/// Satellite: every episode stream the golden scenarios record — parallel
/// scheduler, LCA merges, correlated cures — verifies causally clean, and
/// the telemetry-enabled run leaves the golden trace byte-identical.
#[test]
fn golden_scenario_streams_pass_the_hb_verifier() {
    let dir = golden_dir();
    for sc in golden_scenarios() {
        let (trace, registry) = run_golden_scenario_telemetry(&sc);
        assert!(
            !registry.events().is_empty(),
            "{}: telemetry-enabled run recorded no episode events",
            sc.name
        );
        let violations = hb::verify_registry(&registry);
        assert!(
            violations.is_empty(),
            "{}: happens-before violations in recorded stream: {violations:#?}",
            sc.name
        );
        // Observation-only: the recorded golden must not see the registry.
        if let Ok(expected) = fs::read_to_string(dir.join(format!("{}.txt", sc.name))) {
            assert!(
                diff(&expected, &trace).is_none(),
                "{}: enabling telemetry changed the golden trace",
                sc.name
            );
        }
    }
}

#[test]
fn broken_fixture_is_rejected_with_a_replayable_counterexample() {
    let (model, cfg) = load_model("broken.scenario");
    let outcome = check(&model, &cfg).expect("exploration fits the state budget");
    let cex = outcome
        .violation
        .expect("the seeded bypass-planner bug must be caught");
    // Iterative deepening guarantees minimality; this particular seed is
    // lost at the very first accepted report.
    assert_eq!(cex.trace.len(), 2, "not minimal: {}", cex.render());
    let replayed = replay(&model, &cex.trace).expect("counterexample must replay");
    assert_eq!(replayed, cex.violation, "replay diverged from exploration");
    let rendered = cex.render();
    assert!(rendered.contains("mark inject:"), "{rendered}");
    assert!(rendered.contains("violation component-lost"), "{rendered}");
}

#[test]
fn overload_starve_fixture_is_rejected_with_a_minimized_counterexample() {
    let (model, cfg) = load_model("overload-starve.scenario");
    let outcome = check(&model, &cfg).expect("exploration fits the state budget");
    let cex = outcome
        .violation
        .expect("the seeded starve-deferred bug must be caught");
    // Minimal: inject, defer, rollover — then the queue is stuck for good.
    assert_eq!(cex.trace.len(), 3, "not minimal: {}", cex.render());
    let replayed = replay(&model, &cex.trace).expect("counterexample must replay");
    assert_eq!(replayed, cex.violation, "replay diverged from exploration");
    let rendered = cex.render();
    assert!(rendered.contains("mark defer:"), "{rendered}");
    assert!(
        rendered.contains("violation deferred-starved"),
        "{rendered}"
    );
}

/// Acceptance: the starvation invariant holds violation-free on every tree
/// variant at the default exploration depth — the §4.4 correlated pattern
/// under an admission controller that may defer any report.
#[test]
fn starvation_invariant_holds_on_all_trees_at_default_depth() {
    for variant in TreeVariant::ALL {
        let comps = variant.components();
        let mut text = String::from("tree X\noracle perfect\nadmission\n");
        // Two faults per tree: the first two components, the second carrying
        // a correlated cure over both, so deferral interleaves with merges.
        text.push_str(&format!("fault {}\n", comps[0]));
        if comps.len() > 1 {
            text.push_str(&format!(
                "fault {} cures {} {}\n",
                comps[1], comps[1], comps[0]
            ));
        }
        let sc = scenario::parse(&text).expect("valid scenario");
        let model = Model::new(variant.tree().expect("variant builds"), &sc)
            .unwrap_or_else(|e| panic!("{variant:?}: {e}"));
        let outcome =
            check(&model, &CheckConfig::default()).unwrap_or_else(|e| panic!("{variant:?}: {e}"));
        assert!(
            outcome.violation.is_none(),
            "{variant:?}: admission exploration found a violation:\n{}",
            outcome.violation.map(|c| c.render()).unwrap_or_default()
        );
        assert_eq!(outcome.depth, rr_model::DEFAULT_DEPTH);
        assert!(
            outcome.quiescent_states > 0,
            "{variant:?}: liveness checked"
        );
    }
}

/// The two explorations are deterministic end to end: same outcome object,
/// same counterexample, byte-identical rendering.
#[test]
fn fixture_explorations_are_deterministic() {
    let (model, cfg) = load_model("broken.scenario");
    let a = check(&model, &cfg).expect("first run");
    let b = check(&model, &cfg).expect("second run");
    assert_eq!(a, b);
}
