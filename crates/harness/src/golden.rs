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
use mercury::station::{Station, TreeVariant};
use rr_core::PerfectOracle;
use rr_sim::{FaultKind, FaultScript, SimDuration, SimTime, Trace, TraceEvent, TraceKind};

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

/// How a golden scenario injects its fault(s).
#[derive(Debug, Clone, Copy)]
pub enum ScenarioKind {
    /// Kill one component.
    Single(&'static str),
    /// The §4.4 poisoned-fedr correlated failure (cured only by a joint
    /// \[fedr, pbcom\] restart).
    CorrelatedPbcom,
    /// Two components in independent cells killed at the same instant.
    IndependentPair(&'static str, &'static str),
    /// Kill every listed component at once with the admission controller on
    /// (see [`golden_admission_config`]): capacity 1 admits one restart, the
    /// rest are deferred, duplicate FD reports for the parked components are
    /// shed, and the queue drains as the capacity window recharges.
    OverloadBurst(&'static [&'static str]),
    /// Kill `first`; after `stagger_s`, kill `second` (optionally with a
    /// joint \[fedr, pbcom\] cure hint) while the first episode is still in
    /// flight — the overlap forces promotion to the least common ancestor.
    OverlapPair {
        /// First casualty.
        first: &'static str,
        /// Second casualty, injected `stagger_s` later.
        second: &'static str,
        /// Whether the oracle gets a joint \[fedr, pbcom\] cure hint.
        joint_hint: bool,
        /// Delay between the two kills, seconds.
        stagger_s: f64,
    },
}

/// One golden-trace scenario: a tree variant, a seed, and a fault pattern.
#[derive(Debug, Clone, Copy)]
pub struct GoldenScenario {
    /// Scenario (and golden file) name.
    pub name: &'static str,
    /// The tree variant the station operates.
    pub variant: TreeVariant,
    /// Deterministic simulation seed.
    pub seed: u64,
    /// The fault pattern injected after warm-up.
    pub kind: ScenarioKind,
}

impl GoldenScenario {
    /// The scenario's injections as a declarative [`FaultScript`], times
    /// relative to the post-warm-up injection instant. This is the form the
    /// static analyzer checks: every target must be a component of the
    /// scenario's tree variant. (The correlated-pbcom poison is scripted as
    /// its initiating fedr crash — the cure hint is oracle state, not a
    /// fault.)
    pub fn fault_script(&self) -> FaultScript {
        match self.kind {
            ScenarioKind::Single(comp) => {
                FaultScript::new().with_fault(SimTime::ZERO, comp, FaultKind::Crash)
            }
            ScenarioKind::CorrelatedPbcom => {
                FaultScript::new().with_fault(SimTime::ZERO, names::FEDR, FaultKind::Crash)
            }
            ScenarioKind::IndependentPair(a, b) => FaultScript::new()
                .with_fault(SimTime::ZERO, a, FaultKind::Crash)
                .with_fault(SimTime::ZERO, b, FaultKind::Crash),
            ScenarioKind::OverloadBurst(targets) => {
                let mut script = FaultScript::new();
                for target in targets {
                    script.push(SimTime::ZERO, *target, FaultKind::Crash);
                }
                script
            }
            ScenarioKind::OverlapPair {
                first,
                second,
                stagger_s,
                ..
            } => FaultScript::new()
                .with_fault(SimTime::ZERO, first, FaultKind::Crash)
                .with_fault(SimTime::from_secs_f64(stagger_s), second, FaultKind::Crash),
        }
    }
}

/// The canonical golden-trace scenario set: single faults on every variant
/// plus the multi-fault patterns exercising the parallel scheduler.
pub fn golden_scenarios() -> Vec<GoldenScenario> {
    use ScenarioKind::*;
    vec![
        // Single-fault scenarios: recorded before the parallel scheduler
        // landed; byte-identity here is the "paper() unchanged on single
        // faults" guarantee.
        GoldenScenario {
            name: "tree1-kill-rtu",
            variant: TreeVariant::I,
            seed: 0xD5_2002,
            kind: Single(names::RTU),
        },
        GoldenScenario {
            name: "tree2-kill-rtu",
            variant: TreeVariant::II,
            seed: 0xD5_2012,
            kind: Single(names::RTU),
        },
        GoldenScenario {
            name: "tree3-kill-rtu",
            variant: TreeVariant::III,
            seed: 0xD5_2022,
            kind: Single(names::RTU),
        },
        GoldenScenario {
            name: "tree4-kill-rtu",
            variant: TreeVariant::IV,
            seed: 0xD5_2032,
            kind: Single(names::RTU),
        },
        GoldenScenario {
            name: "tree5-kill-rtu",
            variant: TreeVariant::V,
            seed: 0xD5_2042,
            kind: Single(names::RTU),
        },
        GoldenScenario {
            name: "tree2-kill-fedrcom",
            variant: TreeVariant::II,
            seed: 0xD5_2052,
            kind: Single(names::FEDRCOM),
        },
        GoldenScenario {
            name: "tree2-kill-ses",
            variant: TreeVariant::II,
            seed: 0xD5_2062,
            kind: Single(names::SES),
        },
        GoldenScenario {
            name: "tree3-kill-pbcom",
            variant: TreeVariant::III,
            seed: 0xD5_2072,
            kind: Single(names::PBCOM),
        },
        GoldenScenario {
            name: "tree4-correlated-pbcom",
            variant: TreeVariant::IV,
            seed: 0xD5_2082,
            kind: CorrelatedPbcom,
        },
        GoldenScenario {
            name: "tree5-correlated-pbcom",
            variant: TreeVariant::V,
            seed: 0xD5_2092,
            kind: CorrelatedPbcom,
        },
        // Multi-fault scenarios: concurrent suspicions exercising the
        // parallel scheduler (independent episodes and LCA merges).
        GoldenScenario {
            name: "tree2-pair-rtu-ses",
            variant: TreeVariant::II,
            seed: 0xD5_20A2,
            kind: IndependentPair(names::RTU, names::SES),
        },
        GoldenScenario {
            name: "tree3-pair-fedr-pbcom",
            variant: TreeVariant::III,
            seed: 0xD5_20B2,
            kind: IndependentPair(names::FEDR, names::PBCOM),
        },
        GoldenScenario {
            name: "tree4-pair-rtu-fedr",
            variant: TreeVariant::IV,
            seed: 0xD5_20C2,
            kind: IndependentPair(names::RTU, names::FEDR),
        },
        GoldenScenario {
            name: "tree5-pair-rtu-ses",
            variant: TreeVariant::V,
            seed: 0xD5_20D2,
            kind: IndependentPair(names::RTU, names::SES),
        },
        GoldenScenario {
            name: "tree4-merge-fedr-pbcom",
            variant: TreeVariant::IV,
            seed: 0xD5_20E2,
            kind: OverlapPair {
                first: names::FEDR,
                second: names::PBCOM,
                joint_hint: true,
                stagger_s: 1.0,
            },
        },
        GoldenScenario {
            name: "tree5-merge-fedr-pbcom",
            variant: TreeVariant::V,
            seed: 0xD5_20F2,
            kind: OverlapPair {
                first: names::FEDR,
                second: names::PBCOM,
                joint_hint: false,
                stagger_s: 1.0,
            },
        },
        // Overload scenarios: simultaneous kills under the admission
        // controller (capacity 1), pinning the defer / shed / drain ordering.
        GoldenScenario {
            name: "tree2-overload-pair",
            variant: TreeVariant::II,
            seed: 0xD5_2102,
            kind: OverloadBurst(&[names::RTU, names::SES]),
        },
        GoldenScenario {
            name: "tree4-overload-burst",
            variant: TreeVariant::IV,
            seed: 0xD5_2112,
            kind: OverloadBurst(&[names::SES, names::STR, names::RTU]),
        },
        GoldenScenario {
            name: "tree5-overload-burst",
            variant: TreeVariant::V,
            seed: 0xD5_2122,
            kind: OverloadBurst(&[names::SES, names::STR, names::RTU]),
        },
    ]
}

/// The configuration [`ScenarioKind::OverloadBurst`] scenarios run: the
/// shipped admission preset with the pacing knobs shrunk so a full
/// defer → shed → age-out → admit → cure cycle completes inside a golden
/// window. Capacity 1 over a 20 s window keeps the admitted-restart spacing
/// under the 30 s aging bound (RRL802), so the configuration lints clean.
pub fn golden_admission_config() -> StationConfig {
    let mut cfg = StationConfig::admission();
    cfg.admission_capacity = 1;
    cfg.admission_window_s = 20.0;
    cfg.defer_max_age_s = 30.0;
    cfg.admission_retry_s = 5.0;
    cfg
}

/// Statically lints one scenario before anything runs: the station
/// configuration and tree (via [`StationConfig::lint`]) plus the scenario's
/// [fault script](GoldenScenario::fault_script) against the variant's
/// component set.
pub fn lint_scenario(sc: &GoldenScenario) -> rr_lint::Report {
    let cfg = scenario_config(sc);
    let mut report = match sc.variant.tree() {
        Ok(tree) => cfg.lint(&tree),
        Err(e) => {
            let mut r = rr_lint::Report::new();
            r.push(rr_lint::Diagnostic::new(
                &rr_lint::catalog::TREE_MALFORMED,
                sc.name,
                format!("tree variant {} does not build: {e}", sc.variant),
            ));
            r
        }
    };
    let components = sc.variant.components();
    let infrastructure = [names::FD.to_string(), names::REC.to_string()];
    report.merge(rr_lint::lint_fault_script(
        &sc.fault_script().to_text(),
        &rr_lint::ScriptContext {
            components: &components,
            infrastructure: &infrastructure,
            fd: Some(&cfg.fd),
        },
    ));
    report
}

/// The configuration a scenario records its golden under: the paper
/// calibration, except that overload-burst scenarios need the admission
/// controller and so run [`golden_admission_config`].
fn scenario_config(sc: &GoldenScenario) -> StationConfig {
    match sc.kind {
        ScenarioKind::OverloadBurst(_) => golden_admission_config(),
        _ => StationConfig::paper(),
    }
}

/// Runs one scenario to completion and returns its normalized trace.
///
/// # Panics
///
/// Refuses to run (panics with the rendered report) if
/// [`lint_scenario`] produces a deny diagnostic — the golden suite must
/// never record a trace from a configuration the analyzer rejects.
pub fn run_golden_scenario(sc: &GoldenScenario) -> String {
    run_scenario_with_config(sc, scenario_config(sc)).0
}

/// Runs one scenario with recovery-episode telemetry enabled, returning the
/// normalized trace **and** the recorded telemetry registry (vector-clocked
/// episode stream, ready for the happens-before verifier). Telemetry is
/// observation-only, so the trace is byte-identical to
/// [`run_golden_scenario`]'s.
pub fn run_golden_scenario_telemetry(sc: &GoldenScenario) -> (String, rr_sim::Registry) {
    let mut cfg = scenario_config(sc);
    cfg.telemetry_enabled = true;
    run_scenario_with_config(sc, cfg)
}

/// Shared scenario driver: lints, warms up, injects per the scenario kind,
/// runs to completion, and returns the normalized trace plus the station's
/// telemetry snapshot (a no-op registry unless the config enables it).
fn run_scenario_with_config(
    sc: &GoldenScenario,
    config: StationConfig,
) -> (String, rr_sim::Registry) {
    let lint = lint_scenario(sc);
    assert!(
        !lint.has_deny(),
        "scenario {} rejected by rr-lint:\n{}",
        sc.name,
        lint.to_human()
    );
    let mut station = Station::new(config, sc.variant, Box::new(PerfectOracle::new()), sc.seed)
        .unwrap_or_else(|e| panic!("{}: {e:?}", "valid station"));
    station.warm_up();
    let start = station.now();
    match &sc.kind {
        ScenarioKind::Single(comp) => {
            station
                .inject_kill(comp)
                .unwrap_or_else(|e| panic!("{}: {e:?}", "known component"));
        }
        ScenarioKind::CorrelatedPbcom => {
            station
                .inject_correlated_pbcom()
                .unwrap_or_else(|e| panic!("{}: {e:?}", "known component"));
        }
        ScenarioKind::IndependentPair(a, b) => {
            station
                .inject_kill(a)
                .unwrap_or_else(|e| panic!("{}: {e:?}", "known component"));
            station
                .inject_kill(b)
                .unwrap_or_else(|e| panic!("{}: {e:?}", "known component"));
        }
        ScenarioKind::OverloadBurst(targets) => {
            for target in *targets {
                station
                    .inject_kill(target)
                    .unwrap_or_else(|e| panic!("{}: {e:?}", "known component"));
            }
        }
        ScenarioKind::OverlapPair {
            first,
            second,
            joint_hint,
            stagger_s,
        } => {
            station
                .inject_kill(first)
                .unwrap_or_else(|e| panic!("{}: {e:?}", "known component"));
            station.run_for(SimDuration::from_secs_f64(*stagger_s));
            if *joint_hint {
                station.set_cure_hint(second, [names::FEDR, names::PBCOM]);
            }
            station
                .inject_kill(second)
                .unwrap_or_else(|e| panic!("{}: {e:?}", "known component"));
        }
    }
    // Overload bursts drain their deferral queue at the capacity-window
    // cadence, so they need a longer settle than a single recovery episode.
    let settle_s = match sc.kind {
        ScenarioKind::OverloadBurst(_) => 120,
        _ => 80,
    };
    station.run_for(SimDuration::from_secs(settle_s));
    (normalize(station.trace(), start), station.telemetry())
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
            let script = sc.fault_script();
            let text = script.to_text();
            assert_eq!(FaultScript::parse(&text).expect("round-trip"), script);
            let components = sc.variant.components();
            for fault in script.faults() {
                assert!(
                    components.contains(&fault.target),
                    "{}: target {:?} not in variant {}",
                    sc.name,
                    fault.target,
                    sc.variant
                );
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
