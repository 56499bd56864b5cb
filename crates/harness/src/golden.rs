//! Golden-trace normalization and diffing.
//!
//! The golden-trace regression suite (`tests/golden.rs`, data under the
//! repository-level `tests/golden/`) records canonical recovery traces for
//! representative single- and multi-fault scenarios on every tree variant and
//! fails the build if recovery ordering, episode boundaries, or cure
//! attribution drift. The simulator is deterministic (seeded RNG, virtual
//! time), so a normalized trace is a *byte-exact* function of the scenario.
//!
//! Normalization keeps exactly the events that define recovery behaviour —
//! component lifecycle transitions and the recovery-protocol marks
//! ([`rr_sim::Mark`], tabulated in DESIGN.md §10) — and rebases times to the
//! scenario start so incidental warm-up drift (e.g. a longer settle window in
//! a future config) cannot invalidate every golden.

use std::path::PathBuf;

use mercury::config::{names, StationConfig};
use mercury::station::TreeVariant;
use rr_sim::{FaultKind, FaultScript, SimDuration, SimTime, Trace, TraceEvent, TraceKind};

use crate::trial::{settle_after, JointCure, Trial};

/// Lifecycle kinds included in a normalized trace. `Spawned` is excluded
/// (cold-start noise) and `Dropped` is excluded (incidental routing detail).
/// Of the marks, the recovery-protocol ones are kept; free text (telemetry
/// chatter, pass bookkeeping) is incidental and excluded.
const GOLDEN_KINDS: &[TraceKind] = &[
    TraceKind::Crashed,
    TraceKind::Hung,
    TraceKind::Zombified,
    TraceKind::Restarted,
];

/// `true` if the event belongs in a normalized golden trace.
fn is_golden(e: &TraceEvent) -> bool {
    match e.kind {
        TraceKind::Mark => e.mark().is_some(),
        k => GOLDEN_KINDS.contains(&k),
    }
}

/// Renders the recovery-relevant slice of `trace` from `from` onward as a
/// canonical text form: one `"<nanos-since-from> <kind> <label>"` line per
/// event, in simulation order. Identical scenarios (same seed, same code)
/// produce byte-identical output.
pub fn normalize(trace: &Trace, from: SimTime) -> String {
    let mut out = String::new();
    for e in trace.iter() {
        if e.time < from || !is_golden(e) {
            continue;
        }
        let rebased = e.time.saturating_since(from).as_nanos();
        out.push_str(&format!("{rebased} {} {}\n", e.kind, e.label));
    }
    out
}

/// Compares an actual text (a normalized trace, a rendered table, a JSON
/// artifact) against the expected golden. Returns `None` on a byte-exact
/// match, otherwise a human-readable line diff suitable for a CI artifact:
/// every divergent line is shown as `-expected` / `+actual` with its line
/// number.
pub fn diff(expected: &str, actual: &str) -> Option<String> {
    if expected == actual {
        return None;
    }
    let exp: Vec<&str> = expected.lines().collect();
    let act: Vec<&str> = actual.lines().collect();
    let mut out = String::new();
    out.push_str(&format!(
        "golden and actual differ: {} expected lines, {} actual lines\n",
        exp.len(),
        act.len()
    ));
    let mut shown = 0usize;
    for i in 0..exp.len().max(act.len()) {
        let e = exp.get(i).copied();
        let a = act.get(i).copied();
        if e == a {
            continue;
        }
        if let Some(e) = e {
            out.push_str(&format!("{:>6} -{e}\n", i + 1));
        }
        if let Some(a) = a {
            out.push_str(&format!("{:>6} +{a}\n", i + 1));
        }
        shown += 1;
        if shown >= 40 {
            out.push_str("  ... (further differences elided)\n");
            break;
        }
    }
    Some(out)
}

/// One golden-trace scenario: a named [`Trial`]. Its script is what the
/// station plays after warm-up and what [`lint_scenario`] checks.
#[derive(Debug, Clone)]
pub struct GoldenScenario {
    /// Scenario (and golden file) name.
    pub name: &'static str,
    /// What runs, and for how long.
    pub trial: Trial,
}

/// A scenario crashing each `(offset_s, component)` on the paper
/// calibration, with no joint cure, settled 80 s after the last crash.
fn crashes(
    name: &'static str,
    variant: TreeVariant,
    seed: u64,
    crashes: &[(f64, &str)],
) -> GoldenScenario {
    let mut script = FaultScript::new();
    for &(at_s, target) in crashes {
        script.push(SimTime::from_secs_f64(at_s), target, FaultKind::Crash);
    }
    let trial = Trial {
        horizon: settle_after(&script, SimDuration::from_secs(80)),
        script,
        ..Trial::new(StationConfig::paper(), variant, seed)
    };
    GoldenScenario { name, trial }
}

/// `sc` with a joint cure.
fn joint(mut sc: GoldenScenario, joint: JointCure) -> GoldenScenario {
    sc.trial.joint = Some(joint);
    sc
}

/// `sc` on the capacity-1 admission preset: one restart admitted, the rest
/// deferred, duplicate FD reports for parked components shed, and the queue
/// drained as the capacity window recharges. The shipped preset's pacing
/// knobs are shrunk so a full defer → shed → age-out → admit → cure cycle
/// completes inside a golden window: capacity 1 over a 20 s window keeps the
/// admitted-restart spacing under the 30 s aging bound (RRL802), so the
/// configuration lints clean. The queue drains at the capacity-window
/// cadence, so the burst settles 120 s, not 80.
fn paced(mut sc: GoldenScenario) -> GoldenScenario {
    let cfg = &mut sc.trial.config;
    *cfg = StationConfig::admission();
    cfg.admission_capacity = 1;
    cfg.admission_window_s = 20.0;
    cfg.defer_max_age_s = 30.0;
    cfg.admission_retry_s = 5.0;
    sc.trial.horizon = settle_after(&sc.trial.script, SimDuration::from_secs(120));
    sc
}

/// The canonical golden-trace scenario set: single faults on every variant
/// plus the multi-fault patterns exercising the parallel scheduler.
pub fn golden_scenarios() -> Vec<GoldenScenario> {
    use names::{FEDR, FEDRCOM, PBCOM, RTU, SES, STR};
    use TreeVariant::{I, II, III, IV, V};
    vec![
        // Single-fault scenarios: recorded before the parallel scheduler
        // landed; byte-identity here is the "paper() unchanged on single
        // faults" guarantee.
        crashes("tree1-kill-rtu", I, 0xD5_2002, &[(0.0, RTU)]),
        crashes("tree2-kill-rtu", II, 0xD5_2012, &[(0.0, RTU)]),
        crashes("tree3-kill-rtu", III, 0xD5_2022, &[(0.0, RTU)]),
        crashes("tree4-kill-rtu", IV, 0xD5_2032, &[(0.0, RTU)]),
        crashes("tree5-kill-rtu", V, 0xD5_2042, &[(0.0, RTU)]),
        crashes("tree2-kill-fedrcom", II, 0xD5_2052, &[(0.0, FEDRCOM)]),
        crashes("tree2-kill-ses", II, 0xD5_2062, &[(0.0, SES)]),
        crashes("tree3-kill-pbcom", III, 0xD5_2072, &[(0.0, PBCOM)]),
        joint(
            crashes("tree4-correlated-pbcom", IV, 0xD5_2082, &[(0.0, PBCOM)]),
            JointCure::Poisoned,
        ),
        joint(
            crashes("tree5-correlated-pbcom", V, 0xD5_2092, &[(0.0, PBCOM)]),
            JointCure::Poisoned,
        ),
        // Multi-fault scenarios: concurrent suspicions exercising the
        // parallel scheduler. Same-instant crashes in independent cells
        // open independent episodes; a second crash 1 s into the first
        // episode forces promotion to the least common ancestor.
        crashes(
            "tree2-pair-rtu-ses",
            II,
            0xD5_20A2,
            &[(0.0, RTU), (0.0, SES)],
        ),
        crashes(
            "tree3-pair-fedr-pbcom",
            III,
            0xD5_20B2,
            &[(0.0, FEDR), (0.0, PBCOM)],
        ),
        crashes(
            "tree4-pair-rtu-fedr",
            IV,
            0xD5_20C2,
            &[(0.0, RTU), (0.0, FEDR)],
        ),
        crashes(
            "tree5-pair-rtu-ses",
            V,
            0xD5_20D2,
            &[(0.0, RTU), (0.0, SES)],
        ),
        joint(
            crashes(
                "tree4-merge-fedr-pbcom",
                IV,
                0xD5_20E2,
                &[(0.0, FEDR), (1.0, PBCOM)],
            ),
            JointCure::Hint,
        ),
        crashes(
            "tree5-merge-fedr-pbcom",
            V,
            0xD5_20F2,
            &[(0.0, FEDR), (1.0, PBCOM)],
        ),
        // Overload scenarios: simultaneous kills under the admission
        // controller (capacity 1), pinning the defer / shed / drain ordering.
        paced(crashes(
            "tree2-overload-pair",
            II,
            0xD5_2102,
            &[(0.0, RTU), (0.0, SES)],
        )),
        paced(crashes(
            "tree4-overload-burst",
            IV,
            0xD5_2112,
            &[(0.0, SES), (0.0, STR), (0.0, RTU)],
        )),
        paced(crashes(
            "tree5-overload-burst",
            V,
            0xD5_2122,
            &[(0.0, SES), (0.0, STR), (0.0, RTU)],
        )),
    ]
}

/// Statically lints one scenario before anything runs: the station
/// configuration and tree (via [`StationConfig::lint`]) plus the scenario's
/// fault script, the one the station plays, against the variant's component
/// set.
pub fn lint_scenario(sc: &GoldenScenario) -> rr_lint::Report {
    let Trial {
        config, variant, ..
    } = &sc.trial;
    let mut report = match variant.tree() {
        Ok(tree) => config.lint(&tree),
        Err(e) => {
            let mut r = rr_lint::Report::new();
            r.push(rr_lint::Diagnostic::new(
                &rr_lint::catalog::TREE_MALFORMED,
                sc.name,
                format!("tree variant {variant} does not build: {e}"),
            ));
            r
        }
    };
    let components = variant.components();
    let infrastructure = [names::FD.to_string(), names::REC.to_string()];
    report.merge(rr_lint::lint_fault_script(
        &sc.trial.script.to_text(),
        &rr_lint::ScriptContext {
            components: &components,
            infrastructure: &infrastructure,
            fd: Some(&config.fd),
        },
    ));
    report
}

/// Runs one scenario to completion and returns its normalized trace.
///
/// # Panics
///
/// Refuses to run (panics with the rendered report) if
/// [`lint_scenario`] produces a deny diagnostic — the golden suite must
/// never record a trace from a configuration the analyzer rejects.
pub fn run_golden_scenario(sc: &GoldenScenario) -> String {
    run_scenario(sc, &sc.trial).0
}

/// Runs one scenario with recovery-episode telemetry enabled, returning the
/// normalized trace **and** the recorded telemetry registry (vector-clocked
/// episode stream, ready for the happens-before verifier). Telemetry is
/// observation-only, so the trace is byte-identical to
/// [`run_golden_scenario`]'s.
pub fn run_golden_scenario_telemetry(sc: &GoldenScenario) -> (String, rr_sim::Registry) {
    let mut trial = sc.trial.clone();
    trial.config.telemetry_enabled = true;
    run_scenario(sc, &trial)
}

/// Shared scenario driver: lints, runs `trial` (the scenario's, perhaps with
/// telemetry on), and returns the normalized trace plus the station's
/// telemetry snapshot (a no-op registry unless the config enables it).
fn run_scenario(sc: &GoldenScenario, trial: &Trial) -> (String, rr_sim::Registry) {
    let lint = lint_scenario(sc);
    assert!(
        !lint.has_deny(),
        "scenario {} rejected by rr-lint:\n{}",
        sc.name,
        lint.to_human()
    );
    trial.value(0, |trial| {
        let outcome = trial.run()?;
        let station = &outcome.station;
        Ok((
            normalize(station.trace(), outcome.start),
            station.telemetry(),
        ))
    })
}

/// The repository-level directory holding the recorded golden traces.
pub fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Compares `actual` byte-for-byte against the recording
/// `tests/golden/<file>`, or records it when `GOLDEN_RECORD` is set (how a
/// golden is re-recorded after an intentional change). Returns `None` on a
/// match or after recording. On drift the actual text is written next to the
/// golden as `<stem>.actual.<ext>` and the line [`diff`] is returned, ready
/// to be a test's panic message; a missing recording is reported the same
/// way.
///
/// # Panics
///
/// If the recording or the drift artifact cannot be written.
pub fn compare_or_record(file: &str, actual: &str) -> Option<String> {
    let dir = golden_dir();
    let path = dir.join(file);
    if std::env::var_os("GOLDEN_RECORD").is_some() {
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, actual))
            .unwrap_or_else(|e| panic!("cannot record {}: {e}", path.display()));
        return None;
    }
    let expected = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => return Some(format!("{file}: golden missing ({e}); run GOLDEN_RECORD=1")),
    };
    let (stem, ext) = file.rsplit_once('.').unwrap_or((file, "txt"));
    let actual_path = dir.join(format!("{stem}.actual.{ext}"));
    let Some(d) = diff(&expected, actual) else {
        // Drop any stale drift artifact from a previous failing run.
        let _ = std::fs::remove_file(&actual_path);
        return None;
    };
    std::fs::write(&actual_path, actual)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", actual_path.display()));
    Some(format!(
        "{file} drifted (actual written to {}; re-record with GOLDEN_RECORD=1):\n{d}",
        actual_path.display()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn every_golden_scenario_lints_clean() {
        for sc in golden_scenarios() {
            let report = lint_scenario(&sc);
            assert!(
                report.is_clean(),
                "scenario {} should lint clean:\n{}",
                sc.name,
                report.to_human()
            );
        }
    }

    #[test]
    fn scenario_fault_scripts_are_parseable_and_on_target() {
        for sc in golden_scenarios() {
            let Trial {
                variant, script, ..
            } = &sc.trial;
            let text = script.to_text();
            assert_eq!(&FaultScript::parse(&text).expect("round-trip"), script);
            let components = variant.components();
            for fault in script.faults() {
                assert!(
                    components.contains(&fault.target),
                    "{}: target {:?} not in variant {}",
                    sc.name,
                    fault.target,
                    variant
                );
            }
            // A poisoned scenario injects through `inject_correlated_pbcom`,
            // which crashes pbcom now: the linted script must say exactly that.
            if sc.trial.joint == Some(JointCure::Poisoned) {
                let pbcom_now =
                    FaultScript::new().with_fault(SimTime::ZERO, names::PBCOM, FaultKind::Crash);
                assert_eq!(script, &pbcom_now, "{}", sc.name);
            }
        }
    }

    #[test]
    fn normalize_keeps_recovery_events_only() {
        let mut tr = Trace::new();
        tr.record(t(0.0), None, TraceKind::Spawned, "ses");
        tr.record(t(5.0), None, TraceKind::Mark, "telemetry:opal:1");
        tr.record(t(10.0), None, TraceKind::Crashed, "ses");
        tr.record(t(10.9), None, TraceKind::Mark, "detect:ses");
        tr.record(t(11.0), None, TraceKind::Restarted, "ses");
        tr.record(t(16.3), None, TraceKind::Mark, "ready:ses");
        let norm = normalize(&tr, t(10.0));
        assert_eq!(
            norm,
            "0 crashed ses\n\
             900000000 mark detect:ses\n\
             1000000000 restarted ses\n\
             6300000000 mark ready:ses\n"
        );
    }

    #[test]
    fn normalize_rebases_and_filters_before_from() {
        let mut tr = Trace::new();
        tr.record(t(1.0), None, TraceKind::Crashed, "early");
        tr.record(t(2.0), None, TraceKind::Crashed, "late");
        let norm = normalize(&tr, t(2.0));
        assert_eq!(norm, "0 crashed late\n");
    }

    #[test]
    fn diff_reports_divergent_lines() {
        assert!(diff("a\nb\n", "a\nb\n").is_none());
        let d = diff("a\nb\n", "a\nc\n").unwrap();
        assert!(d.contains("-b"), "{d}");
        assert!(d.contains("+c"), "{d}");
    }
}
