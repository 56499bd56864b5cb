#![allow(clippy::disallowed_methods)]
//! End-to-end malformed-input tests: garbage on the message bus must be
//! logged and dropped by the receiving component, never crash the station —
//! the panic-path counterpart of `msg`'s parser-level malformed suite — and
//! every fallible `Station` entry point must answer bad arguments with a
//! typed [`StationError`], not a panic.

use mercury::config::{names, StationConfig};
use mercury::measure::measure_recovery;
use mercury::station::{Station, StationError, TreeVariant};
use rr_core::PerfectOracle;
use rr_sim::{check, FaultKind, ProcessState, SimDuration};

/// The same adversarial corpus `msg/tests/malformed.rs` drives through the
/// parser, here delivered as live bus traffic.
const GARBAGE: &[&str] = &[
    "",
    "   ",
    "<",
    "<>",
    "</msg>",
    "<msg",
    "<msg>",
    "<msg></other>",
    "<msg attr></msg>",
    "<msg a=\"unterminated",
    "<msg>&bogus;</msg>",
    "<msg>\u{0}binary\u{1}</msg>",
    "<!-- just a comment -->",
    "<?xml version=\"1.0\"?>",
    "not xml at all",
    "{\"json\": \"instead\"}",
    "<a><b><c></c></b></a>",
    "<msg to=\"fd\" type=\"pong\">",
    "\u{FEFF}<msg/>",
];

fn hardened_paper_config() -> StationConfig {
    // The paper timing, with telemetry switched on so the test can observe
    // the parse-error counters the garbage provokes.
    let mut cfg = StationConfig::paper();
    cfg.telemetry_enabled = true;
    cfg
}

/// Every piece of garbage, delivered to every component, is survived: the
/// component logs a parse error and keeps running — and the station as a
/// whole still detects and cures a real fault afterwards.
#[test]
fn bus_garbage_is_logged_and_survived_end_to_end() {
    let mut station = Station::new(
        hardened_paper_config(),
        TreeVariant::III,
        Box::new(PerfectOracle::new()),
        0xBAD_F00D,
    )
    .expect("valid station");
    station.warm_up();
    let components: Vec<String> = station.components().to_vec();
    for comp in &components {
        for g in GARBAGE {
            station
                .inject_wire_garbage(comp, *g)
                .expect("known component");
        }
    }
    station.run_for(SimDuration::from_secs(10));

    // Nobody died from garbage alone: no component was restarted, every
    // process is still running.
    let telemetry = station.telemetry();
    assert_eq!(
        telemetry.counter("restarts_issued", ""),
        0,
        "garbage alone must not trigger recovery"
    );
    for comp in &components {
        assert_eq!(
            station.state_of(comp).expect("known component"),
            ProcessState::Running,
            "{comp} must survive the garbage corpus"
        );
        assert!(
            telemetry.counter("parse_errors", comp) > 0,
            "{comp} must have logged parse errors, not silently dropped"
        );
    }

    // And the station still works: a real fault is detected and cured.
    let injected = station.inject_kill(names::RTU).expect("known component");
    station.run_for(SimDuration::from_secs(60));
    let m = measure_recovery(station.trace(), names::RTU, injected)
        .expect("the station must still recover after eating garbage");
    assert!(m.recovery_s() < 45.0);
}

/// Garbage injected *during* an active recovery episode does not derail it.
#[test]
fn garbage_during_recovery_does_not_derail_the_episode() {
    check::run("garbage during recovery", 6, |rng| {
        let seed = rng.next_u64();
        let mut station = Station::new(
            hardened_paper_config(),
            TreeVariant::IV,
            Box::new(PerfectOracle::new()),
            seed,
        )
        .expect("valid station");
        station.warm_up();
        let injected = station.inject_kill(names::SES).expect("known component");
        // Pelt the survivors with garbage while the episode runs.
        for _ in 0..3 {
            station.run_for(SimDuration::from_secs(1));
            for comp in [names::MBUS, names::FD, names::REC, names::RTU] {
                let g = GARBAGE[rng.next_below(GARBAGE.len() as u64) as usize];
                station
                    .inject_wire_garbage(comp, g)
                    .expect("known component");
            }
        }
        station.run_for(SimDuration::from_secs(60));
        let m = measure_recovery(station.trace(), names::SES, injected)
            .expect("recovery must complete despite concurrent garbage");
        assert!(m.recovery_s() < 45.0);
    });
}

/// The constructor and every injection entry point answer bad arguments
/// with a typed error instead of a panic.
#[test]
fn bad_arguments_yield_typed_errors_not_panics() {
    let mut station = Station::new(
        StationConfig::paper(),
        TreeVariant::I,
        Box::new(PerfectOracle::new()),
        7,
    )
    .expect("valid station");

    // Unknown component names.
    assert!(matches!(
        station.inject_kill("nonesuch"),
        Err(StationError::UnknownComponent(_))
    ));
    for kind in FaultKind::ALL {
        assert!(matches!(
            station.inject("nonesuch", kind),
            Err(StationError::UnknownComponent(_))
        ));
    }
    assert!(matches!(
        station.state_of("nonesuch"),
        Err(StationError::UnknownComponent(_))
    ));
    assert!(matches!(
        station.inject_wire_garbage("nonesuch", "<x/>"),
        Err(StationError::UnknownComponent(_))
    ));

    // The correlated pbcom fault needs the split topology; tree I has the
    // monolithic fedrcom.
    assert!(matches!(
        station.inject_correlated_pbcom(),
        Err(StationError::RequiresSplit)
    ));

    // An invalid configuration is rejected with the validator's complaints.
    let mut bad = StationConfig::paper();
    bad.cure_confirm_s = 0.1;
    match Station::new(bad, TreeVariant::I, Box::new(PerfectOracle::new()), 7) {
        Err(StationError::InvalidConfig(problems)) => assert!(!problems.is_empty()),
        other => panic!("want InvalidConfig, got {other:?}"),
    }

    // Every error renders a non-empty human-readable message.
    for err in [
        StationError::UnknownComponent("x".into()),
        StationError::RequiresSplit,
        StationError::InvalidConfig(vec!["bad".into()]),
    ] {
        assert!(!err.to_string().is_empty());
    }
}

/// A station whose tree does not cover the component set is rejected.
#[test]
fn tree_component_mismatch_is_rejected() {
    let tree = rr_core::tree::TreeSpec::cell("root")
        .with_component("only-one")
        .build()
        .expect("tiny tree builds");
    let err = Station::with_tree(
        StationConfig::paper(),
        tree,
        vec!["only-one".to_string(), "missing".to_string()],
        Box::new(PerfectOracle::new()),
        7,
    );
    assert!(
        matches!(err, Err(StationError::TreeMismatch { .. })),
        "a tree that does not cover the component set must be rejected: {err:?}"
    );
}

/// Tree names parse as the roman numeral or the digit and nothing else; the
/// rejection text is what the audit CLI prints for a bad `tree` line.
#[test]
fn tree_names_parse_roman_or_digit_only() {
    assert_eq!("IV".parse(), Ok(TreeVariant::IV));
    assert_eq!("4".parse(), Ok(TreeVariant::IV));
    for variant in TreeVariant::ALL {
        assert_eq!(variant.to_string().parse(), Ok(variant));
    }
    for bad in ["VI", "", "iv"] {
        assert_eq!(
            bad.parse::<TreeVariant>(),
            Err(format!("unknown tree {bad:?} (expected I-V or 1-5)"))
        );
    }
}
