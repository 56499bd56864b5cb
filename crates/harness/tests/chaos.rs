#![allow(clippy::disallowed_methods)]
//! Acceptance tests for the degraded-communication fault model.
//!
//! Three promises of the hardened configuration, checked end to end:
//!
//! (a) an hour of 5% message loss on every link produces **zero** failure-
//!     detector false positives — no detections, no restarts;
//! (b) a hard failure (the component dies again after every restart)
//!     escalates through the parent cell and ends **quarantined**, without
//!     ever exceeding the restart budget, while the rest of the station keeps
//!     recovering normally;
//! (c) chaos campaigns across trees I–V cure every crash, hang, and zombie
//!     injection that stays below the restart budget.

use mercury::config::{names, StationConfig};
use mercury::measure::measure_recovery;
use mercury::station::TreeVariant;
use rr_harness::chaos::{run_campaign, ChaosConfig};
use rr_harness::Trial;
use rr_sim::{intern, EpisodeStage, FaultKind, LinkQuality, Mark, SimDuration, TraceKind};

/// Recovery actions that must never fire without a real failure.
fn is_action(mark: &Mark) -> bool {
    matches!(
        mark,
        Mark::Stage(EpisodeStage::Suspected | EpisodeStage::Quarantined, _)
            | Mark::Stale(_)
            | Mark::Restart { .. }
            | Mark::GiveUp { .. }
    )
}

#[test]
fn an_hour_of_five_percent_loss_causes_no_false_positives() {
    let mut station = Trial::new(StationConfig::hardened(), TreeVariant::II, 0xA11CE)
        .start()
        .expect("valid station");
    station.degrade_all_links(Some(LinkQuality::lossy(0.05)));
    let start = station.now();
    station.run_for(SimDuration::from_secs(3600));

    let fired: Vec<String> = station
        .trace()
        .iter()
        .filter(|e| e.time >= start && e.kind == TraceKind::Mark)
        .filter(|e| {
            e.mark().is_some_and(is_action)
                || e.text() == Some("rec-restarts:fd")
                || e.text() == Some("fd-restarts:rec")
        })
        .map(|e| e.to_string())
        .collect();
    assert!(fired.is_empty(), "false positives under 5% loss: {fired:?}");

    // Belt and braces: no process was ever killed or restarted either.
    let lifecycle_churn = station
        .trace()
        .iter()
        .filter(|e| e.time >= start)
        .filter(|e| {
            matches!(
                e.kind,
                TraceKind::Crashed | TraceKind::Hung | TraceKind::Restarted
            )
        })
        .count();
    assert_eq!(lifecycle_churn, 0, "processes churned under loss alone");
}

#[test]
fn the_paper_detector_convicts_innocents_under_the_same_loss() {
    // Contrast case: the paper's single-missed-ping detector (threshold 1)
    // false-positives within minutes under the loss the hardened detector
    // shrugs off — this is exactly why the suspicion knobs exist.
    let mut station = Trial::new(StationConfig::paper(), TreeVariant::II, 0xA11CE)
        .start()
        .expect("valid station");
    station.degrade_all_links(Some(LinkQuality::lossy(0.05)));
    let start = station.now();
    station.run_for(SimDuration::from_secs(300));
    let false_detects = station
        .trace()
        .marks()
        .filter(|&(at, m)| at >= start && matches!(m, Mark::Stage(EpisodeStage::Suspected, _)))
        .count();
    assert!(
        false_detects > 0,
        "expected the un-hardened detector to false-positive under 5% loss"
    );
}

#[test]
fn a_hard_failure_escalates_and_is_quarantined_within_budget() {
    let cfg = StationConfig::hardened();
    let mut station = Trial::new(cfg.clone(), TreeVariant::II, 0xB0B)
        .start()
        .expect("valid station");
    let at = station
        .inject(names::RTU, FaultKind::HardCrash)
        .expect("known component");
    // Each failed attempt burns the 45 s restart deadline plus backoff;
    // escalation_limit attempts fit comfortably in 20 simulated minutes.
    station.run_for(SimDuration::from_secs(1200));

    let quarantined_at = station
        .trace()
        .first_mark_at_or_after(at, "quarantine:rtu")
        .expect("hard failure must end in quarantine");
    let rtu = intern(names::RTU);
    assert!(
        station
            .trace()
            .marks()
            .any(|(_, m)| matches!(m, Mark::GiveUp { comp, .. } if *comp == rtu)),
        "quarantine must be preceded by an explicit give-up mark"
    );

    // The oracle escalated through the parent cell: at least one retry
    // pushed a button above R_rtu, restarting the whole station with it.
    let restart_sets: Vec<&[rr_sim::CompId]> = station
        .trace()
        .marks()
        .filter_map(|(_, m)| match m {
            Mark::Restart { owner, set, .. } if *owner == rtu => Some(set.as_slice()),
            _ => None,
        })
        .collect();
    assert!(
        restart_sets
            .iter()
            .any(|set| set.contains(&intern(names::MBUS))),
        "expected escalation past rtu's own cell, got {restart_sets:?}"
    );

    // The restart budget held: no more attempts than the escalation limit,
    // which itself sits inside the per-window restart budget.
    let attempts = restart_sets.len() as u32;
    assert!(
        attempts <= cfg.policy.escalation_limit,
        "{attempts} attempts exceed the escalation limit {}",
        cfg.policy.escalation_limit
    );
    assert!(attempts <= cfg.policy.max_restarts_per_window);

    // Quarantine is terminal: not a single rtu restart after the give-up.
    let post_quarantine = station
        .trace()
        .marks()
        .filter(|(at, m)| {
            *at > quarantined_at && matches!(m, Mark::Restart { owner, .. } if *owner == rtu)
        })
        .count();
    assert_eq!(
        post_quarantine, 0,
        "restart storm continued after quarantine"
    );

    // Graceful degradation: the station runs on without rtu and still cures
    // ordinary failures elsewhere.
    let at2 = station.inject_kill(names::SES).expect("known component");
    station.run_for(SimDuration::from_secs(150));
    let measurement = measure_recovery(station.trace(), names::SES, at2)
        .expect("the degraded station must still cure ordinary failures");
    assert!(measurement.recovery_s() > 0.0);
}

#[test]
fn chaos_campaigns_cure_every_fault_across_all_trees() {
    for &variant in TreeVariant::ALL.iter() {
        let report = run_campaign(variant, &ChaosConfig::default());
        assert!(
            report.ok(),
            "{variant:?} campaign violations: {:#?}",
            report.violations
        );
        for inj in &report.injections {
            assert!(
                !inj.quarantined,
                "{variant:?}: {} {} was quarantined below the restart budget",
                inj.kind, inj.component
            );
            assert!(
                inj.recovery_s.is_some(),
                "{variant:?}: {} of {} at {} was not cured",
                inj.kind,
                inj.component,
                inj.at
            );
        }
    }
}

/// A station the campaign cannot build is refused before anything runs and
/// reported as violations, not a panic: a configuration `validate` rejects,
/// and an rr-lint denial (RRL101: an escalation limit below the tree height)
/// that passes `validate`.
#[test]
fn a_refused_station_is_a_violation_not_a_panic() {
    let mut invalid = StationConfig::hardened();
    invalid.admission_capacity = 0;
    let mut denied = StationConfig::hardened();
    denied.policy.escalation_limit = 1;
    for (station, expected) in [
        (invalid, "invalid station configuration: admission_capacity"),
        (denied, "rr-lint RRL101 at "),
    ] {
        let cfg = ChaosConfig {
            station,
            ..ChaosConfig::default()
        };
        let report = run_campaign(TreeVariant::III, &cfg);
        assert!(report.injections.is_empty());
        assert!(
            report.violations.iter().any(|v| v.starts_with(expected)),
            "{expected}: {:?}",
            report.violations
        );
    }
}
