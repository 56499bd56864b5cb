#![allow(clippy::disallowed_methods)]
//! Telemetry acceptance tests: the registry's online §4.1 bookkeeping must
//! agree with the offline trace scan in `mercury::measure` except where the
//! two definitions differ, and the exporters must carry the whole story.

use rr_harness::chaos::{run_campaign, ChaosConfig};
use rr_harness::report::render_timeline;
use rr_harness::trial::{Trial, TrialOutcome};

use mercury::config::StationConfig;
use mercury::station::TreeVariant;
use rr_sim::{EpisodeStage, FaultKind, FaultScript, Registry, SimDuration, SimTime};
use std::collections::BTreeMap;

/// §4.1 has two implementations that differ in one case. The registry's
/// fold ends a recovery when the last member of the final restart set
/// reports ready, or at the cure if REC confirms it first; the offline
/// `measure_recovery` always waits for that member's `ready:`. A cure comes
/// first when another episode re-restarted a member of the set. Each of
/// these five chaos campaigns (found by a sweep of sixty, trees I-V) holds
/// one such cure; on every other cure the two definitions agree.
#[test]
fn online_and_offline_recovery_differ_only_on_cure_before_ready() {
    let campaigns = [
        (TreeVariant::I, 1),
        (TreeVariant::I, 2),
        (TreeVariant::I, 4),
        (TreeVariant::I, 11),
        (TreeVariant::II, 6),
    ];
    for (variant, k) in campaigns {
        let cfg = ChaosConfig {
            faults: 8,
            seed: 0xC4A0_5D52 ^ (k * 7919),
            ..ChaosConfig::default()
        };
        // Four of these campaigns also leave an injection uncured within
        // the deadline, which the campaign's own audit reports; only the
        // cured injections are measured here.
        let report = run_campaign(variant, &cfg);
        let telemetry = &report.telemetry;
        let total_restarts: usize = report.restarts.values().sum();
        assert_eq!(
            telemetry.counter("restarts_issued", "") as usize,
            total_restarts,
            "restarts_issued must match the trace-derived restart count"
        );

        // Each cured injection's online value, read off its `Cured` event
        // (rendered to the millisecond), is one of two candidates: the
        // offline value, or the span to the cure instant.
        let mut expected: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut cured_first = 0;
        for inj in &report.injections {
            let Some(offline) = inj.recovery_s else {
                continue;
            };
            let (cured_at, shown) = telemetry
                .events()
                .iter()
                .filter(|e| e.stage == EpisodeStage::Cured && e.at >= inj.at)
                .find_map(|e| {
                    let token = e.detail.split(' ').find_map(|t| {
                        t.strip_prefix(inj.component.as_str())?
                            .strip_prefix('=')?
                            .strip_suffix('s')
                    })?;
                    Some((e.at, token.parse::<f64>().expect("a duration")))
                })
                .unwrap_or_else(|| panic!("{variant:?}/{k}: no cure of {}", inj.component));
            let to_cure = cured_at.saturating_since(inj.at).as_secs_f64();
            let online = if (shown - offline).abs() < 5e-4 {
                offline
            } else {
                assert!(
                    (shown - to_cure).abs() < 5e-4 && to_cure < offline,
                    "{variant:?}/{k} {}: online {shown} s is neither offline {offline} s \
                     nor the cure instant {to_cure} s",
                    inj.component
                );
                cured_first += 1;
                to_cure
            };
            expected.entry(&inj.component).or_default().push(online);
        }
        assert_eq!(cured_first, 1, "{variant:?}/{k}: one cure before ready");
        // The histograms hold exactly those values.
        for (comp, values) in &expected {
            let hist = telemetry
                .duration("recovery_time", comp)
                .unwrap_or_else(|| panic!("no recovery_time histogram for {comp}"));
            assert_eq!(hist.count() as usize, values.len(), "{comp}");
            let sum: f64 = values.iter().sum();
            let online_sum = hist.mean_s() * hist.count() as f64;
            assert!(
                (online_sum - sum).abs() < 1e-9 * values.len() as f64,
                "{variant:?}/{k} {comp}: online sum {online_sum} s vs {sum} s"
            );
        }
    }
}

/// `component` killed on a settled tree III station, 90 s on.
fn killed(component: &str, config: StationConfig, seed: u64) -> TrialOutcome {
    let trial = Trial {
        script: FaultScript::new().with_fault(SimTime::ZERO, component, FaultKind::Crash),
        horizon: SimDuration::from_secs(90),
        ..Trial::new(config, TreeVariant::III, seed)
    };
    trial.run().expect("valid station")
}

/// The single-fault case, checked to sub-millisecond agreement: the online
/// registry and the offline scan read the *same* ready instant.
#[test]
fn single_fault_telemetry_matches_measure_exactly() {
    let mut cfg = StationConfig::paper();
    cfg.telemetry_enabled = true;
    for component in ["pbcom", "rtu", "mbus"] {
        let outcome = killed(component, cfg.clone(), 0x7E1E_0001);
        let offline = outcome.measurements()[0]
            .as_ref()
            .expect("single failures recover")
            .recovery_s();
        let telemetry = outcome.station.telemetry();
        let hist = telemetry
            .duration("recovery_time", component)
            .expect("telemetry observed the recovery");
        assert_eq!(hist.count(), 1);
        let online = hist.mean_s();
        assert!(
            (online - offline).abs() < 1e-6,
            "{component}: online {online:.6}s vs offline {offline:.6}s"
        );
    }
}

/// The timeline renderer and both exporters carry the episode.
#[test]
fn exporters_and_timeline_cover_the_episode() {
    let mut cfg = StationConfig::paper();
    cfg.telemetry_enabled = true;
    let telemetry = killed("ses", cfg, 0x7E1E_0002).station.telemetry();

    let timeline = render_timeline(&telemetry);
    for needle in [
        "episode timeline",
        "injected",
        "restarting",
        "cured",
        "recovery_time",
    ] {
        assert!(
            timeline.contains(needle),
            "timeline missing {needle:?}:\n{timeline}"
        );
    }

    let json = telemetry.to_json();
    for needle in [
        "\"counters\"",
        "\"restarts_issued\"",
        "\"durations\"",
        "\"recovery_time{ses}\"",
        "\"events\"",
    ] {
        assert!(json.contains(needle), "JSON missing {needle}");
    }
    // Hand-rolled JSON must at least be balanced.
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "unbalanced JSON"
    );

    let prom = telemetry.to_prometheus();
    for needle in [
        "# TYPE rr_restarts_issued counter",
        "# TYPE rr_recovery_time_seconds histogram",
        "rr_recovery_time_seconds_count",
        "rr_recovery_time_seconds_sum",
        "le=\"+Inf\"",
    ] {
        assert!(prom.contains(needle), "Prometheus text missing {needle}");
    }
}

/// Telemetry left disabled (the paper configuration) stays empty even
/// through a full recovery episode — the zero-overhead-when-off contract.
#[test]
fn disabled_telemetry_records_nothing() {
    let telemetry = killed("rtu", StationConfig::paper(), 0x7E1E_0003)
        .station
        .telemetry();
    assert!(!telemetry.is_enabled());
    assert!(telemetry.events().is_empty());
    assert_eq!(telemetry.counter("restarts_issued", ""), 0);
    assert!(telemetry.durations().next().is_none());
    assert_eq!(telemetry.to_json(), Registry::disabled().to_json());
}
