#![allow(clippy::disallowed_methods)]
//! Golden regression suite.
//!
//! Runs the canonical scenario set ([`rr_harness::golden::golden_scenarios`])
//! on every tree variant under `StationConfig::paper()` with fixed seeds,
//! normalizes the resulting traces ([`rr_harness::golden::normalize`]) and
//! compares them byte-for-byte against the recordings under the
//! repository-level `tests/golden/`
//! ([`rr_harness::golden::compare_or_record`]). Any drift in recovery
//! ordering, episode boundaries, or cure attribution fails the build with a
//! line diff; the actual trace is written next to the golden as
//! `<name>.actual.txt`. The telemetry snapshot and the rr-abs decision table
//! are pinned the same way.
//!
//! Every scenario is statically verified by `rr-lint` before it runs
//! ([`rr_harness::golden::run_golden_scenario`] refuses deny diagnostics).
//!
//! To re-record after an intentional behaviour change:
//!
//! ```text
//! GOLDEN_RECORD=1 cargo test -p rr-harness --test golden
//! ```

use rr_abs::refine::RefineConfig;
use rr_harness::abs::{abs_params, certify_decisions, decision_table_json};
use rr_harness::golden::{
    compare_or_record, golden_scenarios, run_golden_scenario, run_golden_scenario_telemetry,
};
use rr_harness::report::render_timeline;

#[test]
fn golden_traces_match() {
    let failures: Vec<String> = golden_scenarios()
        .iter()
        .filter_map(|sc| compare_or_record(&format!("{}.txt", sc.name), &run_golden_scenario(sc)))
        .collect();
    assert!(
        failures.is_empty(),
        "golden-trace drift in {} scenario(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Runs the tree-III pbcom kill golden scenario with telemetry enabled and
/// renders the full snapshot: timeline, JSON export, and Prometheus export.
/// Everything in it is deterministic (virtual time, sorted metric keys), so
/// the snapshot is golden-recordable like the traces.
fn run_telemetry_scenario() -> String {
    let sc = golden_scenarios()
        .into_iter()
        .find(|sc| sc.name == "tree3-kill-pbcom")
        .expect("the tree-III pbcom kill is a golden scenario");
    let (_trace, telemetry) = run_golden_scenario_telemetry(&sc);
    format!(
        "{}
=== json ===
{}

=== prometheus ===
{}",
        render_timeline(&telemetry),
        telemetry.to_json(),
        telemetry.to_prometheus()
    )
}

/// Golden telemetry snapshot: the episode accounting for a canonical
/// scenario must not drift.
#[test]
fn golden_telemetry_snapshot_matches() {
    let drift = compare_or_record("tree3-kill-pbcom.telemetry.txt", &run_telemetry_scenario());
    assert!(drift.is_none(), "{}", drift.unwrap_or_default());
}

/// The episode stream of every golden scenario: its timeline (events,
/// histograms, counters), then each event's vector clock, one line per
/// event in stream order.
fn run_episode_streams() -> String {
    let mut out = String::new();
    for sc in golden_scenarios() {
        let (_trace, telemetry) = run_golden_scenario_telemetry(&sc);
        out.push_str(&format!("=== {} ===\n", sc.name));
        out.push_str(&render_timeline(&telemetry));
        out.push_str("clocks\n");
        for (i, clock) in telemetry.clocks().iter().enumerate() {
            let entries: Vec<String> = clock
                .entries()
                .map(|(name, tick)| format!("{name}={tick}"))
                .collect();
            out.push_str(&format!("{i:>4}  {}\n", entries.join(" ")));
        }
        out.push('\n');
    }
    out
}

/// Golden episode streams: what the registry records, and in what causal
/// order, for every golden scenario (merged origins, per-origin cures,
/// admission deferrals and sheds included).
#[test]
fn golden_episode_streams_match() {
    let drift = compare_or_record("episode-streams.telemetry.txt", &run_episode_streams());
    assert!(drift.is_none(), "{}", drift.unwrap_or_default());
}

/// The rr-abs decision table: directed-rounding interval arithmetic is
/// deterministic, so any drift against the committed artifact means the
/// calibration or the abstraction changed. Re-record only after reviewing the
/// new certificates.
#[test]
fn abs_decision_table_matches_golden() {
    let params = abs_params(&certify_decisions(RefineConfig::default()));
    let drift = compare_or_record("abs-decisions.json", &decision_table_json(&params));
    assert!(drift.is_none(), "{}", drift.unwrap_or_default());
}

#[test]
fn golden_traces_deterministic() {
    // Re-running a scenario in the same process must reproduce the trace
    // byte-for-byte: the simulation is a pure function of (scenario, seed).
    for sc in golden_scenarios() {
        let first = run_golden_scenario(&sc);
        let second = run_golden_scenario(&sc);
        assert_eq!(
            first, second,
            "scenario {} is not deterministic across runs",
            sc.name
        );
    }
}
