#![allow(clippy::disallowed_methods)]
//! Proactive rejuvenation (§3's "bounded form of software rejuvenation",
//! driven by the §7 health beacons): REC restarts an aging component before
//! it fails, converting unplanned downtime into planned downtime.

use mercury::config::{calib, names, StationConfig};
use mercury::station::{Station, TreeVariant};
use rr_core::PerfectOracle;
use rr_sim::{Mark, SimDuration};

/// Drives pbcom's aging up by repeatedly killing fedr (each reconnection
/// ages the bridge, §4.2).
fn age_pbcom(station: &mut Station, fedr_failures: u32) {
    for _ in 0..fedr_failures {
        station.inject_kill(names::FEDR).expect("known component");
        station.run_for(SimDuration::from_secs(45));
    }
}

#[test]
fn without_rejuvenation_pbcom_ages_to_death() {
    let mut cfg = StationConfig::paper();
    cfg.rejuvenation_aging_threshold = None;
    let mut s = Station::new(cfg, TreeVariant::III, Box::new(PerfectOracle::new()), 11)
        .expect("valid station");
    s.warm_up();
    let limit = calib::PBCOM_AGING_LIMIT;
    age_pbcom(&mut s, limit + 1);
    s.run_for(SimDuration::from_secs(60));
    assert!(
        s.trace().mark_times("aging-crash:pbcom").next().is_some(),
        "pbcom should die of aging without rejuvenation"
    );
}

#[test]
fn rejuvenation_prevents_the_aging_crash() {
    let mut cfg = StationConfig::paper();
    cfg.rejuvenation_aging_threshold = Some(0.5);
    let mut s = Station::new(cfg, TreeVariant::III, Box::new(PerfectOracle::new()), 12)
        .expect("valid station");
    s.warm_up();
    let limit = calib::PBCOM_AGING_LIMIT;
    age_pbcom(&mut s, limit + 2);
    s.run_for(SimDuration::from_secs(60));
    assert!(
        s.trace().mark_times("rejuvenate:pbcom").next().is_some(),
        "REC should rejuvenate pbcom once its aging beacon crosses 0.5"
    );
    assert!(
        s.trace().mark_times("aging-crash:pbcom").next().is_none(),
        "rejuvenation must pre-empt the aging crash"
    );
    // And pbcom is healthy at the end.
    assert_eq!(
        s.state_of(names::PBCOM).expect("known component"),
        rr_sim::ProcessState::Running
    );
}

#[test]
fn rejuvenation_is_not_triggered_by_healthy_components() {
    let mut cfg = StationConfig::paper();
    cfg.rejuvenation_aging_threshold = Some(0.5);
    let mut s = Station::new(cfg, TreeVariant::III, Box::new(PerfectOracle::new()), 13)
        .expect("valid station");
    s.warm_up();
    s.run_for(SimDuration::from_secs(120));
    let rejuvenations = s
        .trace()
        .marks()
        .filter(|(_, m)| matches!(m, Mark::Rejuvenate(_)))
        .count();
    assert_eq!(rejuvenations, 0, "no rejuvenation without aging");
}
