#![allow(clippy::disallowed_methods)]
//! Cross-crate integration tests of station behaviour beyond the paper's
//! tables: wire-level protocol health, workload realism, health beacons,
//! aging-induced failures, policy give-ups, and custom (optimizer-produced)
//! trees running live.

use mercury::config::{calib, names, StationConfig};
use mercury::measure::{measure_recovery, telemetry_frames, MeasureError};
use mercury::scenario::PassScenario;
use mercury::station::{Station, TreeVariant};
use rr_core::{PerfectOracle, TreeSpec};
use rr_sim::{intern, Mark, SimDuration, TraceKind};

fn station(variant: TreeVariant, seed: u64) -> Station {
    let mut s = Station::new(
        StationConfig::paper(),
        variant,
        Box::new(PerfectOracle::new()),
        seed,
    )
    .expect("valid station");
    s.warm_up();
    s
}

#[test]
fn no_malformed_xml_ever_crosses_the_wire() {
    // Every message in the station is a well-formed envelope: a busy run
    // with failures must produce zero parse errors.
    let mut s = station(TreeVariant::IV, 1);
    s.inject_kill(names::SES).expect("known component");
    s.run_for(SimDuration::from_secs(60));
    s.inject_correlated_pbcom().expect("known component");
    s.run_for(SimDuration::from_secs(120));
    let parse_errors = s
        .trace()
        .iter()
        .filter(|e| e.kind == TraceKind::Mark)
        .filter(|e| e.text().is_some_and(|l| l.starts_with("parse-error:")))
        .count();
    assert_eq!(parse_errors, 0);
}

#[test]
fn health_beacons_reach_rec() {
    // Future work §7: component health summaries flow to REC.
    let s = station(TreeVariant::III, 2);
    let control = s.control().borrow();
    for comp in [
        names::MBUS,
        names::FEDR,
        names::PBCOM,
        names::SES,
        names::STR,
        names::RTU,
    ] {
        let beacon = control
            .beacons
            .get(comp)
            .unwrap_or_else(|| panic!("no beacon from {comp}"));
        assert!(beacon.uptime_s > 0.0);
        assert!((0.0..=1.0).contains(&beacon.aging));
    }
}

#[test]
fn repeated_fedr_failures_age_pbcom_to_death() {
    // §4.2: "multiple fedr failures eventually lead to a pbcom failure".
    let mut s = station(TreeVariant::III, 3);
    let limit = calib::PBCOM_AGING_LIMIT;
    for i in 0..=limit {
        s.inject_kill(names::FEDR).expect("known component");
        s.run_for(SimDuration::from_secs(40));
        // Give the incarnation time to age out of "fresh".
        s.run_for(SimDuration::from_secs(5));
        let _ = i;
    }
    s.run_for(SimDuration::from_secs(60));
    let aging_crash = s.trace().mark_times("aging-crash:pbcom").next().is_some();
    assert!(aging_crash, "pbcom should die of connection-loss aging");
    // And the station recovered it.
    let pbcom_restarted = s
        .trace()
        .marks()
        .any(|(_, m)| matches!(m, Mark::Restart { owner, .. } if *owner == intern(names::PBCOM)));
    assert!(pbcom_restarted);
}

#[test]
fn restart_storm_triggers_give_up() {
    // A "hard" failure — the component dies over and over — must eventually
    // be abandoned rather than restarted forever (§2.2).
    let mut s = station(TreeVariant::II, 4);
    let (max_restarts, _) = rr_core::RestartPolicy::new().rate_limit();
    let mut gave_up = false;
    for _ in 0..(max_restarts + 5) {
        let injected = s.inject_kill(names::RTU).expect("known component");
        s.run_for(SimDuration::from_secs(20));
        match measure_recovery(s.trace(), names::RTU, injected) {
            Ok(_) => {}
            Err(MeasureError::GaveUp(_)) | Err(MeasureError::NoRestart(_)) => {
                gave_up = true;
                break;
            }
            Err(e) => panic!("unexpected measurement error: {e}"),
        }
    }
    assert!(gave_up, "the policy must stop a restart storm");
    let give_ups = s.control().borrow().recoverer.give_ups();
    assert!(give_ups >= 1);
}

#[test]
fn custom_optimizer_tree_runs_live() {
    // Take the optimizer's output tree and operate the real station on it.
    let cfg = StationConfig::paper();
    let opt = rr_core::optimize::optimize_tree(
        &TreeSpec::cell("mercury")
            .with_components(names::SPLIT)
            .build()
            .unwrap(),
        &cfg.paper_failure_model(),
        &cfg.cost_model(),
        rr_core::OracleQuality::Faulty { undershoot: 0.3 },
        rr_core::optimize::OptimizerConfig::default(),
    )
    .unwrap();
    let mut s = Station::with_tree(
        StationConfig::paper(),
        opt.tree,
        TreeVariant::V.components(),
        Box::new(PerfectOracle::new()),
        5,
    )
    .expect("valid station");
    s.warm_up();
    let injected = s.inject_kill(names::FEDR).expect("known component");
    s.run_for(SimDuration::from_secs(60));
    let m = measure_recovery(s.trace(), names::FEDR, injected).unwrap();
    assert!(m.recovery_s() < 10.0, "{}", m.recovery_s());
}

#[test]
fn full_pass_with_telemetry_and_clean_wire() {
    let mut cfg = StationConfig::paper();
    let plan = PassScenario::plan(&cfg, "sapphire", 120.0, 30.0, 10.0);
    cfg.pass_epoch_offset_s = plan.epoch_offset_s;
    let mut s = Station::new(cfg, TreeVariant::V, Box::new(PerfectOracle::new()), 6)
        .expect("valid station");
    s.warm_up();
    let frames = plan.run_pass(&mut s);
    assert!(
        frames > 60,
        "a {:.0}s pass should deliver telemetry, got {frames} frames",
        plan.window.duration_s()
    );
    // The tracker declared the pass complete.
    let complete = s
        .trace()
        .iter()
        .filter(|e| e.kind == TraceKind::Mark)
        .any(|e| e.text().is_some_and(|l| l.starts_with("pass-complete:")));
    assert!(complete);
}

#[test]
fn two_failures_in_different_groups_recover_concurrently() {
    let mut s = station(TreeVariant::IV, 7);
    let t_rtu = s.inject_kill(names::RTU).expect("known component");
    s.run_for(SimDuration::from_secs(2));
    let t_mbus = s.inject_kill(names::MBUS).expect("known component");
    s.run_for(SimDuration::from_secs(90));
    let m_rtu = measure_recovery(s.trace(), names::RTU, t_rtu).unwrap();
    let m_mbus = measure_recovery(s.trace(), names::MBUS, t_mbus).unwrap();
    // mbus being down delays detection of rtu (pings flow over mbus), but
    // both must recover without a full restart.
    assert!(m_rtu.final_restart_set == vec![names::RTU.to_string()]);
    assert!(m_mbus.final_restart_set == vec![names::MBUS.to_string()]);
    assert!(m_rtu.recovery_s() < 30.0);
    assert!(m_mbus.recovery_s() < 15.0);
}

#[test]
fn telemetry_stops_while_radio_is_down() {
    let mut cfg = StationConfig::paper();
    let plan = PassScenario::plan(&cfg, "opal", 120.0, 30.0, 20.0);
    cfg.pass_epoch_offset_s = plan.epoch_offset_s;
    let mut s = Station::new(cfg, TreeVariant::V, Box::new(PerfectOracle::new()), 8)
        .expect("valid station");
    s.warm_up();
    plan.start_tracking(&mut s);
    // Run 100 s into the pass, then kill pbcom (the slow one).
    let until = plan.rise_sim_time() + SimDuration::from_secs(100);
    let d = until.saturating_since(s.now());
    s.run_for(d);
    let kill_at = s.inject_kill(names::PBCOM).expect("known component");
    s.run_for(SimDuration::from_secs(90));
    // During the ~22s outage no frames flow.
    let during = telemetry_frames(s.trace(), kill_at, kill_at + SimDuration::from_secs(20));
    assert_eq!(during, 0, "no telemetry while the radio bridge is down");
    // After recovery frames resume.
    let after = telemetry_frames(
        s.trace(),
        kill_at + SimDuration::from_secs(40),
        kill_at + SimDuration::from_secs(80),
    );
    assert!(after > 10, "telemetry resumes after recovery, got {after}");
}
