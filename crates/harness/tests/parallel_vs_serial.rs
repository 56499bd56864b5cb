#![allow(clippy::disallowed_methods)]
//! Property test: parallel recovery of independent faults is never worse
//! than the sequential schedule, per component, on the same seed.
//!
//! Both stations see an identical world — same tree, same seed, same two
//! components killed at the same instant in independent cells — and differ
//! only in `StationConfig::serial_recovery`. For every injected component,
//! the time it takes to become (and stay) ready again under the parallel
//! scheduler must be no worse than under the sequential baseline, modulo
//! the one cost parallelism cannot avoid: the §3.1 boot-contention
//! surcharge (k concurrently booting components slow each other by
//! `1 + CONTENTION_QUADRATIC·(k−1)²`). Group recovery — the time until
//! *both* components are back — must always be at least as good in
//! parallel, contention included.
//!
//! (The companion guarantee — single-fault `StationConfig::paper()` traces
//! are byte-identical before and after the parallel scheduler — is enforced
//! by the golden-trace suite in `tests/golden.rs`.)

use mercury::config::{calib, names, StationConfig};
use mercury::station::{Station, TreeVariant};
use rr_harness::Trial;
use rr_sim::{check, FaultKind, FaultScript, SimDuration, SimRng, SimTime};

/// Independent-cell pairs per tree variant (both components live in disjoint
/// restart cells, so the parallel plan keeps two concurrent episodes).
const PAIRS: &[(TreeVariant, &str, &str)] = &[
    (TreeVariant::II, names::RTU, names::SES),
    (TreeVariant::III, names::FEDR, names::PBCOM),
    (TreeVariant::IV, names::RTU, names::FEDR),
    (TreeVariant::V, names::RTU, names::SES),
];

/// Runs one trial and returns each injected component's recovery time in
/// seconds: from injection to the last `ready:` mark (readiness, because the
/// sequential baseline may cure a deferred component through another
/// episode's deadline escalation, which never restarts it by name).
fn per_component_recovery(
    variant: TreeVariant,
    a: &str,
    b: &str,
    serial: bool,
    seed: u64,
) -> [f64; 2] {
    let mut config = StationConfig::paper();
    config.serial_recovery = serial;
    let phase = SimRng::new(seed ^ 0xA5A5).uniform(0.0, config.fd.ping_period_s);
    let trial = Trial {
        phase: SimDuration::from_secs_f64(phase),
        script: FaultScript::new()
            .with_fault(SimTime::ZERO, a, FaultKind::Crash)
            .with_fault(SimTime::ZERO, b, FaultKind::Crash),
        horizon: SimDuration::from_secs(200),
        ..Trial::new(config, variant, seed)
    };
    let outcome = trial.run().expect("valid station");
    [a, b].map(|comp| recovery_of(&outcome.station, comp, outcome.start, serial))
}

fn recovery_of(station: &Station, comp: &str, injected: SimTime, serial: bool) -> f64 {
    station
        .trace()
        .mark_times(&format!("ready:{comp}"))
        .filter(|&t| t >= injected)
        .last()
        .unwrap_or_else(|| panic!("{comp} never became ready (serial={serial})"))
        .saturating_since(injected)
        .as_secs_f64()
}

/// Worst-case boot-contention factor when both components' cells reboot at
/// once: k is the total component count under the two (disjoint) cells.
fn contention_allowance(variant: TreeVariant, a: &str, b: &str) -> f64 {
    let tree = variant.tree().expect("paper tree builds");
    let k: usize = [a, b]
        .iter()
        .map(|c| {
            let cell = tree.cell_of_component(c).expect("component attached");
            tree.components_under(cell).len()
        })
        .sum();
    1.0 + calib::CONTENTION_QUADRATIC * ((k - 1) as f64).powi(2)
}

#[test]
fn parallel_never_worse_per_component() {
    check::run("parallel_never_worse_per_component", 8, |rng| {
        let (variant, a, b) = PAIRS[rng.next_below(PAIRS.len() as u64) as usize];
        let seed = rng.next_u64();
        let serial = per_component_recovery(variant, a, b, true, seed);
        let parallel = per_component_recovery(variant, a, b, false, seed);
        let allowance = contention_allowance(variant, a, b);
        for (i, comp) in [a, b].iter().enumerate() {
            assert!(
                parallel[i] <= serial[i] * allowance + 1e-9,
                "{variant} {comp} seed {seed:#x}: parallel {:.3} s > serial {:.3} s × {allowance:.4}",
                parallel[i],
                serial[i]
            );
        }
        // Contention included, the group is never slower in parallel.
        let group_serial = serial[0].max(serial[1]);
        let group_parallel = parallel[0].max(parallel[1]);
        assert!(
            group_parallel <= group_serial + 1e-9,
            "{variant} {a}+{b} seed {seed:#x}: parallel group {group_parallel:.3} s > serial {group_serial:.3} s"
        );
    });
}
