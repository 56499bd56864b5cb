#![allow(clippy::disallowed_methods)]
//! Integration of the `rr-model` checker with the harness surface:
//!
//! * every golden scenario's recorded telemetry stream passes the
//!   happens-before verifier, and enabling telemetry does not perturb the
//!   golden trace (telemetry is observation-only);
//! * the seeded-violation fixtures under the repository-level
//!   `tests/model-fixtures/` are rejected with a *minimal* counterexample
//!   whose trace replays to the same violation (that they are rejected at
//!   all, and that their clean twins pass, is `audit_cli.rs`'s table);
//! * every count the checker reports, for every committed scenario with the
//!   reduction off and on, is the golden `model-counts.txt`.

use std::fs;
use std::path::{Path, PathBuf};

use mercury::station::TreeVariant;
use rr_harness::flow::builtin_scenarios;
use rr_harness::golden::{
    compare_or_record, diff, golden_dir, golden_scenarios, run_golden_scenario_telemetry,
};
use rr_model::{check, hb, replay, scenario, CheckConfig, Model, Scenario};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fixtures_dir() -> PathBuf {
    repo_root().join("tests/model-fixtures")
}

/// The model of `sc` on the paper tree it names, explored to the scenario's
/// own depth (the default one if it sets none).
fn model_of(name: &str, sc: &Scenario) -> (Model, CheckConfig) {
    let variant: TreeVariant = sc.tree.parse().unwrap_or_else(|e| panic!("{name}: {e}"));
    let cfg = CheckConfig {
        max_depth: sc.depth.unwrap_or(rr_model::DEFAULT_DEPTH),
        ..CheckConfig::default()
    };
    let model = Model::new(variant.tree().expect("variant builds"), sc)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    (model, cfg)
}

fn parse_file(path: &Path) -> Scenario {
    let text = fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read scenario {}: {e}", path.display()));
    scenario::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn load_model(file: &str) -> (Model, CheckConfig) {
    model_of(file, &parse_file(&fixtures_dir().join(file)))
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

/// `states_explored`, `distinct_states`, `quiescent_states`, the depth reached
/// and the verdict of every committed scenario: the 40 built-in audit
/// scenarios, the fixtures under `tests/model-fixtures/` and the two
/// `benchmark/scenarios/`, each with the reduction off and on. The recording
/// predates the checker's state table (it was made by a search that forked,
/// stepped and signed every visit), so it is an independent reference: any
/// change to the visit order, the dedup or the ample sets shows as a count.
#[test]
fn every_checker_count_is_pinned() {
    let mut cases: Vec<(String, Scenario)> = builtin_scenarios();
    for dir in ["tests/model-fixtures", "benchmark/scenarios"] {
        let mut files: Vec<PathBuf> = fs::read_dir(repo_root().join(dir))
            .unwrap_or_else(|e| panic!("cannot list {dir}: {e}"))
            .map(|entry| entry.expect("directory entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "scenario" || x == "scn"))
            .collect();
        files.sort();
        for path in files {
            let stem = path.file_stem().expect("file name").to_string_lossy();
            cases.push((format!("{dir}/{stem}"), parse_file(&path)));
        }
    }
    let mut actual = String::from("name por depth explored distinct quiescent verdict\n");
    for (name, sc) in &cases {
        let (model, cfg) = model_of(name, sc);
        for por in [false, true] {
            let outcome = check(&model, &CheckConfig { por, ..cfg })
                .unwrap_or_else(|e| panic!("{name} (por {por}): {e}"));
            let verdict = outcome.violation.as_ref().map_or_else(
                || "clean".to_string(),
                |cex| format!("{}@{}", cex.violation.kind.name(), cex.trace.len()),
            );
            actual.push_str(&format!(
                "{name} {} {} {} {} {} {verdict}\n",
                if por { "on" } else { "off" },
                outcome.depth,
                outcome.states_explored,
                outcome.distinct_states,
                outcome.quiescent_states,
            ));
        }
    }
    let drift = compare_or_record("model-counts.txt", &actual);
    assert!(drift.is_none(), "{}", drift.unwrap_or_default());
}
