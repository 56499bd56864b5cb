//! One trial: the procedure behind every number in the paper (§4.1). Build a
//! station, cold-start and settle it, run it to the injection phase, inject
//! the scripted faults (each logged by its `inject:` mark), run to the
//! horizon, and measure each injection's recovery.
//!
//! Every campaign of the harness builds its stations here: a scripted one
//! describes itself as a [`Trial`] value and calls [`Trial::run`]; one that
//! decides its next step from what the station did calls [`Trial::start`]
//! and drives the warm station itself (DESIGN.md §18).

use std::error::Error;

use mercury::config::{names, StationConfig};
use mercury::measure::{measure_recovery, MeasureError, RecoveryMeasurement};
use mercury::station::{Station, StationError, TreeVariant};
use rr_core::oracle::Oracle;
use rr_core::{FaultyOracle, LearningOracle, PerfectOracle};
use rr_sim::{FaultScript, SimDuration, SimRng, SimTime};

/// Which oracle a run uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OracleKind {
    /// The minimal restart policy (`A_oracle`).
    Perfect,
    /// The §4.4 faulty oracle with the given guess-too-low probability.
    Faulty(f64),
    /// The learning oracle (future work §7).
    Learning,
}

impl OracleKind {
    fn build(self, seed: u64) -> Box<dyn Oracle> {
        match self {
            OracleKind::Perfect => Box::new(PerfectOracle::new()),
            OracleKind::Faulty(p) => Box::new(FaultyOracle::new(p, SimRng::new(seed))),
            OracleKind::Learning => Box::new(LearningOracle::new(0.5)),
        }
    }
}

/// The §4.4 joint \[fedr, pbcom\] cure a trial declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JointCure {
    /// A perfect oracle is told that pbcom failures need fedr and pbcom
    /// restarted together; the script's faults are plain crashes.
    Hint,
    /// fedr's session state is poisoned as well: the trial injects
    /// [`Station::inject_correlated_pbcom`] at its start, which sets the
    /// same hint, in place of the script. The poison is Mercury state, not a
    /// process fault, so the script names only the crash it manifests as:
    /// pbcom, at time zero.
    Poisoned,
}

/// One trial: what runs, on which seed, and what is injected when.
#[derive(Debug, Clone)]
pub struct Trial {
    /// The station configuration.
    pub config: StationConfig,
    /// The restart tree.
    pub variant: TreeVariant,
    /// The oracle; a faulty one draws from `seed ^ 0xBEEF`.
    pub oracle: OracleKind,
    /// The station seed. Each campaign derives it from its own base seed
    /// and the trial's index, and every pinned output depends on how.
    pub seed: u64,
    /// How long the warm station runs before the start, the script's time
    /// zero: a campaign draws it before it fans its trials out.
    pub phase: SimDuration,
    /// The faults, times from the start.
    pub script: FaultScript,
    /// The joint cure, if any.
    pub joint: Option<JointCure>,
    /// When the trial ends, measured from the start.
    pub horizon: SimDuration,
}

/// A finished trial: the station as the horizon left it, and what was
/// injected into it.
pub struct TrialOutcome {
    /// The station, for its trace, telemetry and components.
    pub station: Station,
    /// The start: the script's time zero.
    pub start: SimTime,
    /// Each injected `(target, time)`; a scripted fault whose target was
    /// already down is skipped ([`Station::play`]).
    pub injected: Vec<(String, SimTime)>,
}

impl TrialOutcome {
    /// The §4.1 recovery of each injection, in injection order.
    pub fn measurements(&self) -> Vec<Result<RecoveryMeasurement, MeasureError>> {
        self.injected
            .iter()
            .map(|(target, at)| measure_recovery(self.station.trace(), target, *at))
            .collect()
    }
}

/// The horizon that leaves `settle` after the last fault of `script`.
pub fn settle_after(script: &FaultScript, settle: SimDuration) -> SimDuration {
    let last = script.faults().last().map_or(SimTime::ZERO, |f| f.at);
    last.since(SimTime::ZERO) + settle
}

impl Trial {
    /// A trial of `variant` on `config` and `seed`: perfect oracle, no
    /// phase, no faults, no joint cure, ending at its start.
    pub fn new(config: StationConfig, variant: TreeVariant, seed: u64) -> Trial {
        Trial {
            config,
            variant,
            oracle: OracleKind::Perfect,
            seed,
            phase: SimDuration::ZERO,
            script: FaultScript::new(),
            joint: None,
            horizon: SimDuration::ZERO,
        }
    }

    /// Builds the station, cold-starts and settles it, and runs it on by
    /// the phase: the station at the trial's start.
    ///
    /// # Errors
    ///
    /// Whatever [`Station::new`] refuses: an invalid configuration, an
    /// rr-lint denial, a tree that does not build.
    pub fn start(&self) -> Result<Station, StationError> {
        let oracle = self.oracle.build(self.seed ^ 0xBEEF);
        let mut station = Station::new(self.config.clone(), self.variant, oracle, self.seed)?;
        station.warm_up();
        station.run_for(self.phase);
        Ok(station)
    }

    /// [`start`](Self::start)s the station, plays the script (declaring the
    /// joint cure first) and runs to the horizon.
    ///
    /// # Errors
    ///
    /// What [`start`](Self::start) refuses, a script target the station
    /// does not run, or a poisoned trial on a station without fedr and
    /// pbcom.
    pub fn run(&self) -> Result<TrialOutcome, StationError> {
        let mut station = self.start()?;
        let start = station.now();
        let injected = match self.joint {
            Some(JointCure::Poisoned) => {
                vec![(names::PBCOM.to_string(), station.inject_correlated_pbcom()?)]
            }
            Some(JointCure::Hint) => {
                station.set_cure_hint(names::PBCOM, [names::FEDR, names::PBCOM]);
                station.play(&self.script)?
            }
            None => station.play(&self.script)?,
        };
        station.run_for((start + self.horizon).saturating_since(station.now()));
        Ok(TrialOutcome {
            station,
            start,
            injected,
        })
    }

    /// Runs the trial and returns the recovery time of its first injection
    /// in seconds: one sample of a measured cell.
    ///
    /// # Errors
    ///
    /// What [`run`](Self::run) refuses, or why the recovery cannot be
    /// measured ([`MeasureError::NoInjection`] if nothing was injected).
    pub fn recovery_s(&self) -> Result<f64, Box<dyn Error>> {
        let outcome = self.run()?;
        let first = outcome.measurements().into_iter().next();
        let target = self.script.faults().first().map_or("", |f| &f.target);
        let measured = first.unwrap_or_else(|| Err(MeasureError::NoInjection(target.into())))?;
        Ok(measured.recovery_s())
    }

    /// What `body` makes of this trial, trial `i` of its campaign.
    ///
    /// # Panics
    ///
    /// With `trial {i} ({variant}, seed {seed}): {reason}` if `body` fails:
    /// the one place a trial that cannot be built, played or measured
    /// panics. Inside `par_map` the caller re-raises the lowest such `i`
    /// (DESIGN.md §18), and `benchmark/`'s seed search steps past a seed by
    /// catching it.
    pub fn value<T>(&self, i: usize, body: impl FnOnce(&Trial) -> Result<T, Box<dyn Error>>) -> T {
        body(self).unwrap_or_else(|reason| {
            panic!("trial {i} ({}, seed {}): {reason}", self.variant, self.seed)
        })
    }
}
