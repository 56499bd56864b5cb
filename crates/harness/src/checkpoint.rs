//! Restart-vs-checkpoint campaigns: cold recovery against rehydration from
//! the crash-safe state store.
//!
//! The paper's recovery model cold-boots every restarted component; the
//! ses/str pair then pays the §4.3 resync (slow emergency service by the
//! old peer, which the rebuild dooms to an induced failure). With the
//! `rr-store` journal the pair instead *rehydrates*: replay a verified
//! snapshot plus the update tail, skip the resync, leave the peer alone.
//!
//! Neither policy dominates. Replay time scales with state size while the
//! resync cost is flat, so a large-state component recovers *slower* from
//! the store than from its peer — the first table sweeps state size with
//! both arms on the same seed and shows the MTTR crossover directly. And
//! journaling is not free even when nothing fails: every checkpoint stalls
//! the store for `state/throughput`, a steady availability tax the cold arm
//! never pays. The second table folds both effects into expected downtime
//! across failure rates: below the crossover rate the plain restart wins,
//! above it the checkpoint wins — the recursive-restartability story with a
//! price tag on state.

use mercury::config::{names, StationConfig};
use mercury::station::TreeVariant;
use rr_core::RecoveryMode;
use rr_sim::{intern, FaultKind, FaultScript, Mark, SimDuration, SimTime};

use crate::tables::Table;
use crate::trial::{settle_after, Trial};

/// Campaign parameters. The defaults straddle the analytic crossover
/// (`state_kb ≈ resync_s * throughput ≈ 6.9 MiB`): the small sizes
/// rehydrate well under the cold MTTR, the 16 MiB cell loses to it.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Session-state sizes to sweep, in KiB.
    pub state_sizes_kb: Vec<f64>,
    /// Checkpoint interval for the rehydrate arm, in seconds.
    pub checkpoint_interval_s: f64,
    /// Sequential ses kills per arm (each fully recovers before the next).
    pub kills: usize,
    /// Seconds between kills (journal updates accumulate in the gap).
    pub settle_s: f64,
    /// Campaign seed.
    pub seed: u64,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig {
            state_sizes_kb: vec![64.0, 256.0, 1024.0, 4096.0, 16.0 * 1024.0],
            checkpoint_interval_s: 60.0,
            kills: 3,
            settle_s: 150.0,
            seed: 0xC8EC_0001,
        }
    }
}

/// The station configuration one arm runs: the checkpointed preset at the
/// given state size, with the rehydrate policy stripped for the cold arm so
/// both arms differ in recovery mode only.
fn arm_config(rehydrate: bool, state_kb: f64, interval_s: f64) -> StationConfig {
    let mut cfg = StationConfig::checkpointed();
    cfg.session_state_kb = state_kb;
    if rehydrate {
        for mode in cfg.recovery_modes.values_mut() {
            *mode = RecoveryMode::Rehydrate {
                checkpoint_interval_s: interval_s,
            };
        }
    } else {
        cfg.recovery_modes.clear();
    }
    cfg
}

/// One finished campaign arm.
#[derive(Debug, Clone)]
pub struct CheckpointReport {
    /// Session-state size this arm ran at, in KiB.
    pub state_kb: f64,
    /// Whether the ses/str pair rehydrated from the store.
    pub rehydrate: bool,
    /// Recovery time of each ses kill, in seconds.
    pub mttr_samples: Vec<f64>,
    /// `rehydrate:` completions observed (telemetry `rehydrated`).
    pub rehydrated: u64,
    /// Journal records replayed across all rehydrations.
    pub replayed_records: u64,
    /// Milliseconds the store stalled writing checkpoints (both components).
    pub checkpoint_stall_ms: u64,
    /// Induced §4.3 peer failures suffered by str.
    pub induced_str_crashes: usize,
    /// Observed campaign window, in seconds (for overhead accounting).
    pub window_s: f64,
}

impl CheckpointReport {
    /// Mean recovery time over the kills.
    pub fn mean_mttr_s(&self) -> f64 {
        if self.mttr_samples.is_empty() {
            0.0
        } else {
            self.mttr_samples.iter().sum::<f64>() / self.mttr_samples.len() as f64
        }
    }

    /// Fraction of the campaign window the store spent stalled on
    /// checkpoint writes — the availability tax journaling charges even
    /// when nothing fails.
    fn stall_fraction(&self) -> f64 {
        if self.window_s <= 0.0 {
            0.0
        } else {
            self.checkpoint_stall_ms as f64 / 1000.0 / self.window_s
        }
    }

    /// Expected downtime fraction at `failures_per_hour`: per-failure MTTR
    /// amortized over the failure rate, plus the steady checkpoint stall.
    fn expected_downtime(&self, failures_per_hour: f64) -> f64 {
        failures_per_hour / 3600.0 * self.mean_mttr_s() + self.stall_fraction()
    }
}

/// Runs one arm: sequential ses kills at one state size, cold or rehydrate.
fn run_arm(rehydrate: bool, state_kb: f64, cfg: &CheckpointConfig) -> CheckpointReport {
    let station_cfg = arm_config(rehydrate, state_kb, cfg.checkpoint_interval_s);
    let settle = SimDuration::from_secs_f64(cfg.settle_s);
    let mut script = FaultScript::new();
    let mut at = SimTime::ZERO;
    for _ in 0..cfg.kills {
        at += settle;
        script.push(at, names::SES, FaultKind::Crash);
    }
    let trial = Trial {
        horizon: settle_after(&script, settle),
        script,
        ..Trial::new(station_cfg, TreeVariant::III, cfg.seed)
    };
    trial.value(0, |trial| {
        let outcome = trial.run()?;
        let (station, start) = (&outcome.station, outcome.start);
        let mttr_samples = outcome
            .measurements()
            .into_iter()
            .map(|m| m.map(|m| m.recovery_s()))
            .collect::<Result<Vec<f64>, _>>()?;
        let induced_str_crashes = station
            .trace()
            .times_of(Mark::InducedCrash(intern(names::STR)))
            .filter(|&t| t > start)
            .count();
        let t = station.telemetry();
        let sum = |name: &'static str| t.counter(name, "ses") + t.counter(name, "str");
        Ok(CheckpointReport {
            state_kb,
            rehydrate,
            mttr_samples,
            rehydrated: sum("rehydrated"),
            replayed_records: sum("replayed_records"),
            checkpoint_stall_ms: sum("checkpoint_stall_ms"),
            induced_str_crashes,
            window_s: station.now().saturating_since(start).as_secs_f64(),
        })
    })
}

/// Runs both arms at one state size — cold, then rehydrate, same seed and
/// kill schedule — and returns `(cold, rehydrate)`.
pub fn run_pair(state_kb: f64, cfg: &CheckpointConfig) -> (CheckpointReport, CheckpointReport) {
    (run_arm(false, state_kb, cfg), run_arm(true, state_kb, cfg))
}

/// The cold-vs-rehydrate MTTR table across the state-size sweep, plus the
/// per-size reports for downstream scoring. Deterministic for a fixed
/// config — the golden suite pins its rendering.
pub fn mttr_table(cfg: &CheckpointConfig) -> (Table, Vec<(CheckpointReport, CheckpointReport)>) {
    let mut table = Table::new(
        "Cold restart vs rehydrate: MTTR across session-state size (tree III, ses kills)",
        vec![
            "state (KiB)".into(),
            "recovery".into(),
            "mean MTTR (s)".into(),
            "rehydrations".into(),
            "replayed records".into(),
            "ckpt stall (s)".into(),
            "induced str crashes".into(),
        ],
    );
    let mut pairs = Vec::new();
    for &state_kb in &cfg.state_sizes_kb {
        let (cold, rehy) = run_pair(state_kb, cfg);
        for r in [&cold, &rehy] {
            table.push_row(vec![
                format!("{state_kb:.0}"),
                if r.rehydrate { "rehydrate" } else { "cold" }.into(),
                format!("{:.2}", r.mean_mttr_s()),
                r.rehydrated.to_string(),
                r.replayed_records.to_string(),
                format!("{:.1}", r.checkpoint_stall_ms as f64 / 1000.0),
                r.induced_str_crashes.to_string(),
            ]);
        }
        pairs.push((cold, rehy));
    }
    (table, pairs)
}

/// The restart-vs-checkpoint crossover: expected downtime across failure
/// rates at one state size, folding the rehydrate arm's steady checkpoint
/// stall into its score.
pub fn crossover_table(cold: &CheckpointReport, rehy: &CheckpointReport) -> Table {
    let mut table = Table::new(
        format!(
            "Expected downtime vs failure rate at {:.0} KiB (stall tax {:.4}% of wall clock)",
            cold.state_kb,
            rehy.stall_fraction() * 100.0
        ),
        vec![
            "failures/hour".into(),
            "cold downtime (%)".into(),
            "rehydrate downtime (%)".into(),
            "winner".into(),
        ],
    );
    for rate in [0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0] {
        let c = cold.expected_downtime(rate);
        let r = rehy.expected_downtime(rate);
        table.push_row(vec![
            format!("{rate}"),
            format!("{:.4}", c * 100.0),
            format!("{:.4}", r * 100.0),
            if r < c { "rehydrate" } else { "cold" }.into(),
        ]);
    }
    table
}

/// Renders the checkpoint campaign as an experiment section: the MTTR
/// state-size sweep and the failure-rate crossover at the calibrated state
/// size.
pub fn experiment(run: crate::RunConfig) -> crate::Experiment {
    let mut exp = crate::Experiment {
        id: "checkpoint".into(),
        title: "Checkpoint — cold restart vs rehydration from the crash-safe store".into(),
        tables: Vec::new(),
        blocks: Vec::new(),
        observations: Vec::new(),
    };
    exp.blocks.push(
        "Both arms run the same seed and kill schedule on tree III; only the\n\
         recovery mode differs. Cold restarts resync against the old peer\n\
         (slow service, then the 4.3 induced failure dooms it); rehydration\n\
         replays a verified checkpoint from the store and leaves the peer\n\
         alone. Replay time scales with state size while the resync cost is\n\
         flat, so the arms cross over as state grows; and because every\n\
         checkpoint stalls the store, journaling also charges a steady\n\
         availability tax that only pays for itself above a failure-rate\n\
         threshold.\n"
            .to_string(),
    );
    let cfg = CheckpointConfig {
        seed: run.seed,
        ..CheckpointConfig::default()
    };
    let (table, pairs) = mttr_table(&cfg);
    exp.tables.push(table);

    let (small_cold, small_rehy) = &pairs[0];
    let (big_cold, big_rehy) = &pairs[pairs.len() - 1];
    exp.observations.push((
        "smallest state: rehydrate beats cold MTTR (1=yes)".into(),
        1.0,
        f64::from(u8::from(
            small_rehy.mean_mttr_s() < small_cold.mean_mttr_s(),
        )),
    ));
    exp.observations.push((
        "largest state: cold beats rehydrate MTTR (1=yes)".into(),
        1.0,
        f64::from(u8::from(big_cold.mean_mttr_s() < big_rehy.mean_mttr_s())),
    ));
    exp.observations.push((
        "rehydrate arm never suffers the induced peer crash (1=yes)".into(),
        1.0,
        f64::from(u8::from(
            pairs.iter().all(|(_, r)| r.induced_str_crashes == 0),
        )),
    ));

    // The crossover sweep runs at the calibrated 256 KiB state size: the
    // second entry of the default sweep.
    let calibrated = pairs
        .iter()
        .find(|(c, _)| (c.state_kb - 256.0).abs() < f64::EPSILON)
        .unwrap_or(&pairs[0]);
    let sweep = crossover_table(&calibrated.0, &calibrated.1);
    let wins_low = calibrated.0.expected_downtime(0.25) < calibrated.1.expected_downtime(0.25);
    let wins_high = calibrated.1.expected_downtime(20.0) < calibrated.0.expected_downtime(20.0);
    exp.tables.push(sweep);
    exp.observations.push((
        "crossover: cold wins at 0.25/hr, rehydrate wins at 20/hr (1=yes)".into(),
        1.0,
        f64::from(u8::from(wins_low && wins_high)),
    ));
    exp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_configs_validate_and_differ_only_in_recovery_mode() {
        let cold = arm_config(false, 512.0, 60.0);
        let rehy = arm_config(true, 512.0, 60.0);
        assert!(cold.validate().is_ok());
        assert!(rehy.validate().is_ok());
        assert!(cold.recovery_modes.is_empty());
        assert_eq!(rehy.recovery_modes.len(), 2);
        let mut recold = rehy.clone();
        recold.recovery_modes.clear();
        assert_eq!(format!("{recold:?}"), format!("{cold:?}"));
    }

    #[test]
    fn both_regimes_appear_across_the_default_sweep() {
        // One kill per arm at the two extreme sizes keeps this fast while
        // still witnessing the crossover's two regimes.
        let cfg = CheckpointConfig {
            kills: 1,
            ..CheckpointConfig::default()
        };
        let (small_cold, small_rehy) = run_pair(64.0, &cfg);
        assert!(
            small_rehy.mean_mttr_s() < small_cold.mean_mttr_s(),
            "64 KiB: rehydrate ({:.2}s) must beat cold ({:.2}s)",
            small_rehy.mean_mttr_s(),
            small_cold.mean_mttr_s()
        );
        assert!(small_rehy.rehydrated >= 1);
        assert_eq!(small_rehy.induced_str_crashes, 0);
        assert!(small_cold.induced_str_crashes >= 1);

        let (big_cold, big_rehy) = run_pair(16.0 * 1024.0, &cfg);
        assert!(
            big_cold.mean_mttr_s() < big_rehy.mean_mttr_s(),
            "16 MiB: cold ({:.2}s) must beat rehydrate ({:.2}s)",
            big_cold.mean_mttr_s(),
            big_rehy.mean_mttr_s()
        );
    }

    #[test]
    fn downtime_crossover_flips_with_failure_rate() {
        let cfg = CheckpointConfig {
            kills: 1,
            ..CheckpointConfig::default()
        };
        let (cold, rehy) = run_pair(256.0, &cfg);
        assert!(rehy.stall_fraction() > 0.0, "journaling must charge a tax");
        assert!(
            cold.expected_downtime(0.25) < rehy.expected_downtime(0.25),
            "rare failures: the checkpoint tax loses"
        );
        assert!(
            rehy.expected_downtime(20.0) < cold.expected_downtime(20.0),
            "frequent failures: the MTTR edge wins"
        );
    }
}
