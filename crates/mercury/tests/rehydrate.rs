#![allow(clippy::disallowed_methods)]
//! Restart-vs-rehydrate behaviour of the stateful ses/str pair: a
//! rehydrating component skips the §4.3 resync (and the induced peer
//! failure it drags along), journal damage degrades recovery gracefully,
//! and the telemetry counters account for what was replayed.

use mercury::config::StationConfig;
use mercury::station::{Station, TreeVariant};
use rr_core::PerfectOracle;
use rr_sim::{SimDuration, SimTime};
use rr_store::JournalFault;

fn station(cfg: StationConfig, seed: u64) -> Station {
    let mut s = Station::new(cfg, TreeVariant::III, Box::new(PerfectOracle::new()), seed)
        .expect("valid station");
    s.warm_up();
    s
}

/// Time from the injection mark to the component's next `ready:` mark.
fn recovery_secs(station: &Station, component: &str, injected_at: SimTime) -> f64 {
    let ready = station
        .trace()
        .mark_times(&format!("ready:{component}"))
        .find(|t| *t > injected_at)
        .expect("component must recover");
    ready.saturating_since(injected_at).as_secs_f64()
}

fn mark_count_after(station: &Station, label: &str, after: SimTime) -> usize {
    station
        .trace()
        .mark_times(label)
        .filter(|t| *t > after)
        .count()
}

#[test]
fn rehydrate_skips_resync_and_beats_cold_restart() {
    let seed = 42;
    // Cold arm: the paper's behaviour — ses resyncs against the old str,
    // which services slowly and then suffers the induced failure.
    let mut cold = station(StationConfig::paper(), seed);
    let at = cold.inject_kill("ses").expect("known component");
    cold.run_for(SimDuration::from_secs(120));
    let cold_mttr = recovery_secs(&cold, "ses", at);
    assert!(
        mark_count_after(&cold, "induced-crash:str", at) > 0,
        "cold resync must doom the old str (§4.3)"
    );

    // Rehydrate arm: same seed, ses/str journal their session state.
    let mut rehy = station(StationConfig::checkpointed(), seed);
    let at = rehy.inject_kill("ses").expect("known component");
    rehy.run_for(SimDuration::from_secs(120));
    let rehy_mttr = recovery_secs(&rehy, "ses", at);
    assert!(
        mark_count_after(&rehy, "rehydrate:ses", at) > 0,
        "ses must come back via the store"
    );
    assert_eq!(
        mark_count_after(&rehy, "induced-crash:str", at),
        0,
        "rehydration must not touch the peer"
    );
    assert!(
        rehy_mttr < cold_mttr,
        "rehydrate ({rehy_mttr:.2}s) must beat the cold resync ({cold_mttr:.2}s) \
         at the default state size"
    );

    // The telemetry counters account for the replay.
    let t = rehy.telemetry();
    assert!(t.counter("rehydrated", "ses") >= 1);
    assert!(t.counter("replayed_records", "ses") >= 1);
    assert!(t.counter("snapshot_bytes", "ses") >= 1024);
    assert!(t.counter("checkpoints", "ses") >= 1);
}

#[test]
fn torn_journal_falls_back_to_cold_start() {
    let mut s = station(StationConfig::checkpointed(), 7);
    s.run_for(SimDuration::from_secs(30));
    // Tear the whole journal away: no snapshot reference survives.
    let len = s.store().borrow_mut().component("ses").journal_len();
    s.inject_journal_fault("ses", JournalFault::TruncateTail(len))
        .expect("known component");
    let at = s.inject_kill("ses").expect("known component");
    s.run_for(SimDuration::from_secs(120));
    assert!(
        mark_count_after(&s, "rehydrate-miss:ses", at) > 0,
        "a gutted journal must be detected"
    );
    assert_eq!(mark_count_after(&s, "rehydrate:ses", at), 0);
    // The cold path still cures it — damage degrades, never wedges.
    let mttr = recovery_secs(&s, "ses", at);
    assert!(mttr > 0.0);
}

#[test]
fn corrupt_update_rehydrates_from_the_durable_prefix() {
    let mut s = station(StationConfig::checkpointed(), 11);
    // Let update records accumulate past the last checkpoint.
    s.run_for(SimDuration::from_secs(20));
    let journaled = s
        .store()
        .borrow()
        .get("ses")
        .expect("journaling")
        .recover()
        .updates
        .len();
    assert!(
        journaled > 0,
        "updates must have accumulated for the test to bite"
    );
    // Rot a byte inside the first update record, past the snapshot frame
    // (17-byte header + 16-byte payload).
    s.inject_journal_fault("ses", JournalFault::CorruptByte(17 + 16 + 5))
        .expect("known component");
    let at = s.inject_kill("ses").expect("known component");
    s.run_for(SimDuration::from_secs(120));
    assert!(
        mark_count_after(&s, "rehydrate:ses", at) > 0,
        "the verified snapshot predates the damage and must be used"
    );
    let t = s.telemetry();
    assert!(
        t.counter("replayed_records", "ses") >= 1,
        "snapshot itself counts as a replayed record"
    );
}

#[test]
fn cold_restart_station_never_touches_the_store() {
    let mut s = station(StationConfig::paper(), 3);
    s.inject_kill("ses").expect("known component");
    s.run_for(SimDuration::from_secs(60));
    assert!(
        s.store().borrow().get("ses").is_none(),
        "ColdRestart components must not journal"
    );
    assert_eq!(s.trace().mark_times("rehydrate:ses").count(), 0);
    assert_eq!(s.trace().mark_times("rehydrate-miss:ses").count(), 0);
}
