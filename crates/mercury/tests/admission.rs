#![allow(clippy::disallowed_methods)]
//! Admission-control behaviour under overload: coverage preservation (a
//! faulty component's only pending request is never shed), the aging
//! guarantee (deferred restarts eventually run even with no spare capacity),
//! and the quarantine interplay (a deferred-then-quarantined component
//! leaves no stale queue entry and is never restarted again).

use mercury::config::StationConfig;
use mercury::station::{Station, TreeVariant};
use rr_core::PerfectOracle;
use rr_sim::{check, intern, FaultKind, Mark, SimDuration};

const VARIANTS: [TreeVariant; 5] = [
    TreeVariant::I,
    TreeVariant::II,
    TreeVariant::III,
    TreeVariant::IV,
    TreeVariant::V,
];

fn mark_count(station: &Station, label: &str) -> usize {
    station.trace().mark_times(label).count()
}

/// Property: under arbitrary crash storms with admission control on, every
/// faulty component retains coverage — by the end of the settle window it is
/// either cured or quarantined, never silently dropped by shedding, and the
/// deferral queue has fully drained.
#[test]
fn storm_never_sheds_last_coverage() {
    check::run("storm_never_sheds_last_coverage", 12, |rng| {
        let variant = *rng.choose(&VARIANTS).unwrap();
        let comps = variant.components();
        let seed = rng.next_u64();
        let mut cfg = StationConfig::admission();
        // Tight capacity so storms actually defer and shed.
        cfg.admission_capacity = 1 + rng.next_below(2) as u32;
        cfg.admission_window_s = 60.0 + rng.next_below(60) as f64;
        cfg.defer_max_age_s = 240.0;
        let mut station =
            Station::new(cfg, variant, Box::new(PerfectOracle::new()), seed).expect("valid");
        station.warm_up();
        // A storm: 2–4 waves of kills over distinct components.
        let waves = 2 + rng.next_below(3);
        let mut victims: Vec<String> = Vec::new();
        for _ in 0..waves {
            let n = 1 + rng.next_below(comps.len() as u64 - 1) as usize;
            for comp in comps.iter().take(n) {
                station.inject_kill(comp).expect("known component");
                if !victims.contains(comp) {
                    victims.push(comp.clone());
                }
            }
            station.run_for(SimDuration::from_secs(10 + rng.next_below(20)));
        }
        // Settle: long enough for the queue to drain by aging alone.
        station.run_for(SimDuration::from_secs(600));
        let control = station.control().borrow();
        assert!(
            control.deferred.is_empty(),
            "{variant:?}: deferral queue did not drain: {:?}",
            control.deferred
        );
        drop(control);
        for victim in &victims {
            // A victim's own report may be legitimately absorbed by an
            // in-flight group restart that covers it, so the invariant is
            // about outcome, not attribution: the component ends healthy
            // (some restart revived it) or quarantined — never left dead
            // because its coverage was shed.
            let healthy =
                station.state_of(victim).expect("known component") == rr_sim::ProcessState::Running;
            let quarantined = mark_count(&station, &format!("quarantine:{victim}")) > 0;
            assert!(
                healthy || quarantined,
                "{variant:?}: {victim} left dead — its coverage was dropped"
            );
        }
    });
}

/// The aging guarantee: with capacity permanently exhausted (one launch per
/// hour-long window), deferred restarts still run — forced through by
/// `defer_max_age_s` — so every victim is cured.
#[test]
fn aging_forces_deferred_restarts_to_run() {
    let mut cfg = StationConfig::admission();
    cfg.admission_capacity = 1;
    cfg.admission_window_s = 3600.0;
    cfg.defer_max_age_s = 60.0;
    cfg.admission_retry_s = 5.0;
    let mut station = Station::new(cfg, TreeVariant::IV, Box::new(PerfectOracle::new()), 7)
        .expect("valid station");
    station.warm_up();
    for comp in ["rtu", "fedr", "ses"] {
        station.inject_kill(comp).expect("known component");
    }
    station.run_for(SimDuration::from_secs(300));
    let telemetry = station.telemetry();
    assert!(
        telemetry.counter("admission_deferred", "") > 0,
        "capacity 1 against three kills must defer"
    );
    for comp in ["rtu", "fedr", "ses"] {
        assert!(
            mark_count(&station, &format!("cured:{comp}")) > 0,
            "{comp} starved despite the aging guarantee"
        );
    }
    assert!(station.control().borrow().deferred.is_empty());
}

/// Regression: admission charges taken at classification time for reports
/// the recoverer then rules GiveUp on must be refunded. Before the refund,
/// a quarantine burst left its dead charges in the sliding window — two
/// quarantined components could pin `admitted_in_window` at capacity and
/// starve a later, perfectly healthy component into the deferral queue.
#[test]
fn quarantine_burst_does_not_starve_admission_of_healthy_components() {
    let mut cfg = StationConfig::admission();
    // Capacity sized so the burst's legitimate launches (one per hard-failed
    // component, storm budget 1) leave slack, but the pre-refund dead
    // charges (one more per quarantine) would exactly exhaust it.
    cfg.admission_capacity = 4;
    cfg.admission_window_s = 600.0;
    cfg.admission_retry_s = 5.0;
    cfg.defer_max_age_s = 240.0;
    cfg.policy.max_restarts_per_window = 1;
    cfg.policy.restart_window_s = 3600.0;
    let mut station = Station::new(cfg, TreeVariant::IV, Box::new(PerfectOracle::new()), 13)
        .expect("valid station");
    station.warm_up();
    // The burst: two hard failures that blow the 1-restart storm budget and
    // quarantine, each leaving one spent launch charge and (pre-refund) one
    // dead charge in the 600 s window.
    for comp in ["ses", "fedr"] {
        station
            .inject(comp, FaultKind::HardCrash)
            .expect("known component");
    }
    station.run_for(SimDuration::from_secs(300));
    for comp in ["ses", "fedr"] {
        assert!(
            mark_count(&station, &format!("quarantine:{comp}")) > 0,
            "{comp} should be quarantined by the storm policy"
        );
    }
    // A healthy component fails inside the same capacity window: with the
    // dead charges refunded there is spare capacity, so it must be admitted
    // immediately — not parked in the deferral queue until aging forces it.
    station.inject_kill("rtu").expect("known component");
    station.run_for(SimDuration::from_secs(120));
    assert_eq!(
        mark_count(&station, "defer:rtu"),
        0,
        "healthy rtu was starved by the quarantine burst's dead charges"
    );
    assert!(
        mark_count(&station, "cured:rtu") > 0,
        "healthy rtu did not recover"
    );
}

/// Quarantine interplay: a persistently crashing component is paced by
/// admission, eventually quarantined by the restart-storm policy, and after
/// quarantine neither restarts again nor leaks a deferral-queue entry.
#[test]
fn deferred_then_quarantined_leaves_no_stale_state() {
    let mut cfg = StationConfig::admission();
    cfg.admission_capacity = 1;
    cfg.admission_window_s = 30.0;
    cfg.defer_max_age_s = 30.0;
    cfg.admission_retry_s = 5.0;
    cfg.policy.max_restarts_per_window = 3;
    cfg.policy.restart_window_s = 3600.0;
    let mut station = Station::new(cfg, TreeVariant::IV, Box::new(PerfectOracle::new()), 11)
        .expect("valid station");
    station.warm_up();
    station
        .inject("ses", FaultKind::HardCrash)
        .expect("known component");
    station.run_for(SimDuration::from_secs(900));
    let quarantine_at = station
        .trace()
        .mark_times("quarantine:ses")
        .next()
        .expect("a hard failure under a 3-restart budget must quarantine");
    // No restart covering ses is issued after the quarantine, and the
    // deferral queue holds no stale entry for it.
    let ses = intern("ses");
    let late_restarts = station
        .trace()
        .marks()
        .filter(|(at, m)| {
            *at > quarantine_at
                && matches!(m, Mark::Restart { owner, set, .. } if *owner == ses || set.contains(&ses))
        })
        .count();
    assert_eq!(late_restarts, 0, "quarantined ses was restarted again");
    assert!(
        !station.control().borrow().deferred.contains_key("ses"),
        "stale deferral entry leaked past quarantine"
    );
    // No double-counting: the ses cell was restarted at most the storm
    // budget's 3 times (deferral must not manufacture extra attempts).
    let ses_restarts = station
        .trace()
        .marks()
        .filter(|(_, m)| matches!(m, Mark::Restart { owner, .. } if *owner == ses))
        .count();
    assert!(
        ses_restarts <= 3,
        "{ses_restarts} restarts exceed the 3-per-window storm budget"
    );
}
