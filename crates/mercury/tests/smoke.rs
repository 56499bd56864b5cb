#![allow(clippy::disallowed_methods)]
//! End-to-end smoke tests: the station cold-starts, detects injected
//! failures, recovers them through the restart tree, and the measured
//! recovery times land in the paper's ballpark (exact reproduction is the
//! harness's job; these tests pin the mechanism).

use mercury::config::{names, StationConfig};
use mercury::measure::measure_recovery;
use mercury::station::{Station, StationError, TreeVariant};
use rr_core::{FaultyOracle, PerfectOracle};
use rr_sim::{intern, EpisodeStage, FaultKind, FaultScript, Mark, SimDuration, SimRng, SimTime};

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
fn tree_ii_recovers_rtu_quickly() {
    let mut s = station(TreeVariant::II, 1);
    let injected = s.inject_kill(names::RTU).expect("known component");
    s.run_for(SimDuration::from_secs(60));
    let m = measure_recovery(s.trace(), names::RTU, injected).unwrap();
    assert_eq!(m.final_restart_set, vec![names::RTU.to_string()]);
    let r = m.recovery_s();
    assert!(
        (4.5..7.0).contains(&r),
        "rtu recovery {r:.2}s (paper: 5.59)"
    );
}

#[test]
fn tree_i_restarts_everything() {
    let mut s = station(TreeVariant::I, 2);
    let injected = s.inject_kill(names::RTU).expect("known component");
    s.run_for(SimDuration::from_secs(90));
    let m = measure_recovery(s.trace(), names::RTU, injected).unwrap();
    assert_eq!(m.final_restart_set.len(), 5, "whole station restarts");
    let r = m.recovery_s();
    assert!(
        (22.0..28.0).contains(&r),
        "tree I recovery {r:.2}s (paper: 24.75)"
    );
}

#[test]
fn tree_iii_ses_failure_includes_slow_resync_and_induces_str() {
    let mut s = station(TreeVariant::III, 3);
    let injected = s.inject_kill(names::SES).expect("known component");
    s.run_for(SimDuration::from_secs(120));
    let m = measure_recovery(s.trace(), names::SES, injected).unwrap();
    let r = m.recovery_s();
    assert!(
        (8.5..11.0).contains(&r),
        "ses recovery {r:.2}s (paper: 9.50)"
    );
    // The old str serviced the resync and must then have failed and been
    // restarted (f_{ses,str} ≈ 1, §4.3).
    let induced = s
        .trace()
        .mark_times("induced-crash:str")
        .any(|t| t > injected);
    assert!(induced, "str should suffer an induced failure");
    let str_restarted = s.trace().marks().any(|(at, m)| {
        matches!(m, Mark::Restart { owner, .. } if *owner == intern(names::STR)) && at > injected
    });
    assert!(str_restarted, "REC should restart str afterwards");
}

#[test]
fn tree_iv_restarts_the_pair_together_and_faster() {
    let mut s = station(TreeVariant::IV, 4);
    let injected = s.inject_kill(names::SES).expect("known component");
    s.run_for(SimDuration::from_secs(60));
    let m = measure_recovery(s.trace(), names::SES, injected).unwrap();
    assert_eq!(
        m.final_restart_set,
        vec![names::SES.to_string(), names::STR.to_string()]
    );
    let r = m.recovery_s();
    assert!(
        (5.5..7.5).contains(&r),
        "consolidated recovery {r:.2}s (paper: 6.25)"
    );
    // No induced second episode: they were fresh together.
    let induced = s
        .trace()
        .mark_times("induced-crash:str")
        .any(|t| t > injected);
    assert!(!induced, "joint restart must not induce a str failure");
}

#[test]
fn correlated_pbcom_failure_escalates_with_faulty_oracle_in_tree_iv() {
    // Force the oracle to always guess too low: the episode must take two
    // attempts (pbcom alone, then the joint cell).
    let mut s = Station::new(
        StationConfig::paper(),
        TreeVariant::IV,
        Box::new(FaultyOracle::new(1.0, SimRng::new(7))),
        5,
    )
    .expect("valid station");
    s.warm_up();
    let injected = s.inject_correlated_pbcom().expect("known component");
    s.run_for(SimDuration::from_secs(180));
    let m = measure_recovery(s.trace(), names::PBCOM, injected).unwrap();
    assert!(
        m.attempts >= 2,
        "guess-too-low must escalate (attempts: {})",
        m.attempts
    );
    assert_eq!(
        m.final_restart_set,
        vec![names::FEDR.to_string(), names::PBCOM.to_string()]
    );
    let r = m.recovery_s();
    assert!(
        (40.0..55.0).contains(&r),
        "wrong-guess episode {r:.2}s (analytic ≈ 47.5)"
    );
}

#[test]
fn tree_v_makes_the_mistake_impossible() {
    let mut s = Station::new(
        StationConfig::paper(),
        TreeVariant::V,
        Box::new(FaultyOracle::new(1.0, SimRng::new(8))),
        6,
    )
    .expect("valid station");
    s.warm_up();
    let injected = s.inject_correlated_pbcom().expect("known component");
    s.run_for(SimDuration::from_secs(120));
    let m = measure_recovery(s.trace(), names::PBCOM, injected).unwrap();
    assert_eq!(m.attempts, 1, "tree V has no too-low button");
    let r = m.recovery_s();
    assert!(
        (20.0..24.0).contains(&r),
        "tree V recovery {r:.2}s (paper: 21.63)"
    );
}

#[test]
fn fd_failure_is_recovered_by_rec() {
    let mut s = station(TreeVariant::II, 9);
    let before = s.now();
    {
        let sim = s.sim_mut();
        let fd = sim.lookup(names::FD).unwrap();
        sim.kill(fd);
    }
    s.run_for(SimDuration::from_secs(120));
    let restarted = s.trace().mark_times("rec-restarts:fd").any(|t| t >= before);
    assert!(restarted, "REC must restart a dead FD");
    // FD comes back and is functional again.
    let fd_ready = s
        .trace()
        .mark_times(&format!("ready:{}", names::FD))
        .any(|t| t > before);
    assert!(fd_ready);
}

#[test]
fn rec_failure_is_recovered_by_fd() {
    let mut s = station(TreeVariant::II, 10);
    let before = s.now();
    {
        let sim = s.sim_mut();
        let rec = sim.lookup(names::REC).unwrap();
        sim.kill(rec);
    }
    s.run_for(SimDuration::from_secs(120));
    let restarted = s.trace().mark_times("fd-restarts:rec").any(|t| t >= before);
    assert!(restarted, "FD must restart a dead REC");
    // And the station still recovers component failures afterwards.
    let injected = s.inject_kill(names::RTU).expect("known component");
    s.run_for(SimDuration::from_secs(60));
    let m = measure_recovery(s.trace(), names::RTU, injected).unwrap();
    assert!(m.recovery_s() < 10.0);
}

#[test]
fn hang_is_detected_and_cured_like_a_crash() {
    let mut s = station(TreeVariant::II, 11);
    let injected = s
        .inject(names::SES, FaultKind::Hang)
        .expect("known component");
    s.run_for(SimDuration::from_secs(60));
    let m = measure_recovery(s.trace(), names::SES, injected).unwrap();
    assert!((8.5..11.5).contains(&m.recovery_s()), "{}", m.recovery_s());
}

#[test]
fn deterministic_given_seed() {
    let run = |seed| {
        let mut s = station(TreeVariant::III, seed);
        let injected = s.inject_kill(names::FEDR).expect("known component");
        s.run_for(SimDuration::from_secs(60));
        measure_recovery(s.trace(), names::FEDR, injected)
            .unwrap()
            .recovery_s()
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42), run(43), "different seeds see different jitter");
}

fn injected_marks(s: &Station, component: &str) -> usize {
    s.trace()
        .times_of(Mark::Stage(EpisodeStage::Injected, intern(component)))
        .count()
}

#[test]
fn inject_writes_one_mark_and_one_event_per_kind() {
    for (kind, detail) in FaultKind::ALL
        .into_iter()
        .zip(["kill", "hang", "zombie", "hard"])
    {
        let mut cfg = StationConfig::paper();
        cfg.telemetry_enabled = true;
        let mut s = Station::new(cfg, TreeVariant::II, Box::new(PerfectOracle::new()), 21)
            .expect("valid station");
        s.warm_up();
        let at = s.inject(names::RTU, kind).expect("known component");
        assert_eq!(injected_marks(&s, names::RTU), 1, "{kind}");
        let events: Vec<_> = s
            .telemetry()
            .events()
            .iter()
            .filter(|e| e.stage == EpisodeStage::Injected)
            .map(|e| (e.at, e.component.clone(), e.detail.clone()))
            .collect();
        assert_eq!(
            events,
            [(at, names::RTU.to_string(), detail.to_string())],
            "{kind}"
        );
    }
}

#[test]
fn play_skips_a_fault_whose_target_is_already_down() {
    let mut s = station(TreeVariant::II, 22);
    let start = s.now();
    let script = FaultScript::new()
        .with_fault(SimTime::ZERO, names::RTU, FaultKind::Crash)
        .with_fault(SimTime::from_secs_f64(0.5), names::RTU, FaultKind::Crash)
        .with_fault(SimTime::from_secs(1), names::SES, FaultKind::Crash);
    let injected = s.play(&script).expect("known components");
    assert_eq!(
        injected,
        [
            (names::RTU.to_string(), start),
            (names::SES.to_string(), start + SimDuration::from_secs(1)),
        ]
    );
    assert_eq!(injected_marks(&s, names::RTU), 1);
    assert_eq!(
        s.now(),
        start + SimDuration::from_secs(1),
        "play does not settle"
    );
}

#[test]
fn play_injects_same_offset_faults_in_script_order() {
    let mut s = station(TreeVariant::II, 23);
    let start = s.now();
    let script = FaultScript::new()
        .with_fault(SimTime::ZERO, names::SES, FaultKind::Crash)
        .with_fault(SimTime::ZERO, names::RTU, FaultKind::Hang);
    let injected = s.play(&script).expect("known components");
    assert_eq!(
        injected,
        [
            (names::SES.to_string(), start),
            (names::RTU.to_string(), start)
        ]
    );
    let marked: Vec<Mark> = s
        .trace()
        .marks()
        .filter(|&(at, m)| at == start && matches!(m, Mark::Stage(EpisodeStage::Injected, _)))
        .map(|(_, m)| m.clone())
        .collect();
    assert_eq!(
        marked,
        [
            Mark::Stage(EpisodeStage::Injected, intern(names::SES)),
            Mark::Stage(EpisodeStage::Injected, intern(names::RTU)),
        ]
    );
}

#[test]
fn play_rejects_an_unknown_target_before_the_station_moves() {
    let mut s = station(TreeVariant::II, 24);
    let start = s.now();
    let script = FaultScript::new()
        .with_fault(SimTime::ZERO, names::RTU, FaultKind::Crash)
        .with_fault(SimTime::from_secs(5), "nonesuch", FaultKind::Crash);
    assert_eq!(
        s.play(&script),
        Err(StationError::UnknownComponent("nonesuch".into()))
    );
    assert_eq!(s.now(), start);
    assert_eq!(injected_marks(&s, names::RTU), 0);
}
