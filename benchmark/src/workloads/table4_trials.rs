//! `table4_trials`: the paper's own experiment. 33 tree/oracle/component
//! cells, each measured over fresh short-lived stations (cold start, warm-up,
//! one injected failure, 150 simulated seconds, recovery read off the trace).

use std::hash::{DefaultHasher, Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};

use mercury::config::{names, StationConfig};
use mercury::measure::measure_recovery;
use mercury::station::{Station, TreeVariant};
use rr_core::oracle::Oracle;
use rr_core::{FaultyOracle, PerfectOracle};
use rr_harness::experiments::{measure_cell_samples, table4};
use rr_harness::{Experiment, OracleKind, RunConfig};
use rr_sim::{SimDuration, SimRng, Summary};

use super::{median, per, quantile, Outcome, Workload};
use crate::trace::Tracer;

/// Trials per cell in one repetition (the paper and `repro` use 100; the
/// cost per trial does not depend on how many follow).
const TRIALS: u64 = 6;
/// Trials per cell driven phase by phase through the `Station` API.
const PHASE_TRIALS: usize = 5;

struct Cell {
    variant: TreeVariant,
    oracle: OracleKind,
    label: &'static str,
    component: &'static str,
    /// The paper's Table 4 value.
    paper_s: f64,
    /// Inject the §4.4 joint fedr/pbcom failure instead of a plain kill.
    correlated: bool,
}

/// The benchmark's own copy of the Table 4 cell list (`table4_rows` is
/// private to rr-harness). Every run checks that it reproduces the
/// observations of `experiments::table4` bit for bit.
fn cells() -> Vec<Cell> {
    use TreeVariant::{I, II, III, IV, V};
    let perfect = OracleKind::Perfect;
    let faulty = OracleKind::Faulty(0.3);
    let split = |pbcom_s: f64, correlated: bool| {
        vec![
            (names::MBUS, 5.73, false),
            (names::SES, 6.25, false),
            (names::STR, 6.11, false),
            (names::RTU, 5.59, false),
            (names::FEDR, 5.76, false),
            (names::PBCOM, pbcom_s, correlated),
        ]
    };
    let rows = vec![
        (
            I,
            perfect,
            "I / perfect",
            [
                names::MBUS,
                names::SES,
                names::STR,
                names::RTU,
                names::FEDRCOM,
            ]
            .map(|c| (c, 24.75, false))
            .to_vec(),
        ),
        (
            II,
            perfect,
            "II / perfect",
            vec![
                (names::MBUS, 5.73, false),
                (names::SES, 9.50, false),
                (names::STR, 9.76, false),
                (names::RTU, 5.59, false),
                (names::FEDRCOM, 20.93, false),
            ],
        ),
        (
            III,
            perfect,
            "III / perfect",
            vec![
                (names::MBUS, 5.73, false),
                (names::SES, 9.50, false),
                (names::STR, 9.76, false),
                (names::RTU, 5.59, false),
                (names::FEDR, 5.76, false),
                (names::PBCOM, 21.24, false),
            ],
        ),
        (IV, perfect, "IV / perfect", split(21.24, false)),
        (IV, faulty, "IV / faulty", split(29.19, true)),
        (V, faulty, "V / faulty", split(21.63, true)),
    ];
    rows.into_iter()
        .flat_map(|(variant, oracle, label, cells)| {
            cells
                .into_iter()
                .map(move |(component, paper_s, correlated)| Cell {
                    variant,
                    oracle,
                    label,
                    component,
                    paper_s,
                    correlated,
                })
        })
        .collect()
}

/// The oracle `measure_cell_samples` builds for a trial (its constructor is
/// private).
fn build_oracle(kind: OracleKind, seed: u64) -> Box<dyn Oracle> {
    match kind {
        OracleKind::Faulty(p) => Box::new(FaultyOracle::new(p, SimRng::new(seed))),
        _ => Box::new(PerfectOracle::new()),
    }
}

type Observations = Vec<(String, f64, f64)>;

fn same_bits(a: &Observations, b: &Observations) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.0 == y.0 && x.1.to_bits() == y.1.to_bits() && x.2.to_bits() == y.2.to_bits()
        })
}

pub struct Table4Trials {
    cells: Vec<Cell>,
    run: RunConfig,
    warm: RunConfig,
    /// The last `experiments::table4` result at full size: what the
    /// cell-by-cell path must reproduce, and what `render` is timed on.
    reference: Option<Experiment>,
    /// Per-cell samples of the last cell-by-cell repetition.
    samples: Vec<Vec<f64>>,
    /// Per phase-sample trial: events processed and trace events recorded.
    phase_counts: Vec<(u64, u64)>,
}

/// The harness seed for `seed`: the first of `seed`, `seed + 2¹⁶`, … on which
/// the tree-I mbus cell can be measured.
///
/// When a tree-I mbus kill lands inside the failure detector's ping round,
/// the bus-relayed pings time out a round before mbus's own does; REC keys
/// the whole-station restart by another component, and `measure_recovery`
/// finds no restart for mbus — about one trial in two hundred, and
/// `measure_cell_samples` panics on it. The benchmark measures speed on inputs
/// that succeed, so input generation steps past such seeds.
fn measurable_seed(seed: u64, trials: usize) -> u64 {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let found = (0..64)
        .map(|k| seed.wrapping_add(k << 16))
        .find(|&candidate| {
            let run = RunConfig {
                trials,
                seed: candidate,
            };
            catch_unwind(|| {
                measure_cell_samples(TreeVariant::I, OracleKind::Perfect, names::MBUS, false, run)
            })
            .is_ok()
        });
    std::panic::set_hook(hook);
    found.unwrap_or(seed)
}

impl Table4Trials {
    pub fn new(seed: u64, scale_div: u64) -> Table4Trials {
        let trials = |div: u64| (TRIALS / div).max(1) as usize;
        // The warm-up's trials are the first of the full size's.
        let seed = measurable_seed(seed, trials(scale_div));
        Table4Trials {
            cells: cells(),
            run: RunConfig {
                trials: trials(scale_div),
                seed,
            },
            warm: RunConfig {
                trials: trials(scale_div * 5),
                seed,
            },
            reference: None,
            samples: Vec::new(),
            phase_counts: Vec::new(),
        }
    }

    fn outcome(
        &self,
        run: RunConfig,
        digest: DefaultHasher,
        obs: &Observations,
        failed: bool,
    ) -> Outcome {
        let trials = (self.cells.len() * run.trials) as u64;
        let rel_err = obs
            .iter()
            .map(|(_, paper, measured)| ((measured - paper) / paper).abs())
            .fold(0.0, f64::max);
        Outcome {
            digest: digest.finish(),
            attempted: trials,
            failed: if failed { trials } else { 0 },
            units: trials as f64,
            values: vec![
                (
                    "sim_mttr_s",
                    per(obs.iter().map(|o| o.2).sum(), obs.len() as u64),
                ),
                ("paper_rel_err_max", rel_err),
            ],
        }
    }

    /// What `repro table4` does: the whole experiment in one call.
    fn plain(&self, run: RunConfig) -> (Outcome, Option<Experiment>) {
        let result = catch_unwind(AssertUnwindSafe(|| {
            let exp = table4(run);
            let text = exp.render();
            (exp, text)
        }));
        let mut digest = DefaultHasher::new();
        match result {
            Ok((exp, text)) => {
                text.hash(&mut digest);
                let out = self.outcome(run, digest, &exp.observations, false);
                (out, Some(exp))
            }
            // A trial whose recovery cannot be measured panics inside the
            // experiment; the whole repetition then counts as failed.
            Err(_) => (self.outcome(run, digest, &Vec::new(), true), None),
        }
    }

    /// The same 33 cells, one call into the harness per cell.
    fn cell_by_cell(&mut self, run: RunConfig, reference: &Experiment, t: &mut Tracer) -> Outcome {
        let root = t.enter("bench.repetition");
        let mut observations = Vec::new();
        self.samples.clear();
        let mut panicked = false;
        for cell in &self.cells {
            let open = t.enter("harness.measure_cell_samples");
            let samples = catch_unwind(AssertUnwindSafe(|| {
                measure_cell_samples(
                    cell.variant,
                    cell.oracle,
                    cell.component,
                    cell.correlated,
                    run,
                )
            }));
            t.exit(open, run.trials as u64);
            let Ok(samples) = samples else {
                panicked = true;
                continue;
            };
            let summary = t.time("harness.summary_of", || Summary::of(&samples));
            observations.push((
                format!("{}:{}", cell.label, cell.component),
                cell.paper_s,
                summary.mean,
            ));
            self.samples.push(samples);
        }
        let text = t.time("harness.render", || reference.render());
        std::hint::black_box(text);
        let open = t.enter("bench.verify");
        let mut digest = DefaultHasher::new();
        for (label, paper, measured) in &observations {
            (label, paper.to_bits(), measured.to_bits()).hash(&mut digest);
        }
        let wrong = panicked || !same_bits(&observations, &reference.observations);
        t.exit(open, 0);
        t.exit(root, 0);
        self.outcome(run, digest, &observations, wrong)
    }

    /// One trial of `measure_cell_samples`, phase by phase.
    fn phase_trial(
        &mut self,
        cell_index: usize,
        trial: usize,
        phase_rng: &mut SimRng,
        t: &mut Tracer,
    ) -> Option<f64> {
        let cell = &self.cells[cell_index];
        let seed = self
            .run
            .seed
            .wrapping_add(trial as u64)
            .wrapping_mul(2654435761);
        let whole = t.enter("bench.trial");
        let oracle = build_oracle(cell.oracle, seed ^ 0xBEEF);
        let station = t.time("mercury.station_new", || {
            Station::new(StationConfig::paper(), cell.variant, oracle, seed)
        });
        let mut station = station.ok()?;
        t.time("mercury.warm_up", || station.warm_up());
        let injected = t.time("mercury.inject", || {
            station.randomize_injection_phase(phase_rng);
            if cell.correlated {
                station.inject_correlated_pbcom()
            } else {
                station.inject_kill(cell.component)
            }
        });
        let injected = injected.ok()?;
        t.time("mercury.run_for", || {
            station.run_for(SimDuration::from_secs(150))
        });
        let measured = t.time("mercury.measure_recovery", || {
            measure_recovery(station.trace(), cell.component, injected)
        });
        self.phase_counts.push((
            station.sim_mut().events_processed(),
            station.trace().len() as u64,
        ));
        t.time("mercury.station_drop", || drop(station));
        t.exit(whole, 0);
        measured.ok().map(|m| m.recovery_s())
    }
}

impl Workload for Table4Trials {
    fn warm_up(&mut self) -> Outcome {
        let (mut out, exp) = self.plain(self.warm);
        // The benchmark's cell list against the harness's, at the small size.
        let reproduced = exp.is_some_and(|exp| {
            let mut off = Tracer::new();
            self.cell_by_cell(self.warm, &exp, &mut off).failed == 0
        });
        if !reproduced {
            out.failed = out.attempted;
        }
        out
    }

    fn repetition(&mut self, t: &mut Tracer) -> Outcome {
        if t.recording() {
            if let Some(reference) = self.reference.take() {
                let out = self.cell_by_cell(self.run, &reference, t);
                self.reference = Some(reference);
                return out;
            }
        }
        let (out, exp) = self.plain(self.run);
        self.reference = exp;
        out
    }

    fn probes(&mut self, t: &mut Tracer) -> (u64, u64) {
        let root = t.enter("bench.phase_sample");
        let per_cell = PHASE_TRIALS.min(self.run.trials);
        let tree_v = TreeVariant::V.tree();
        let config = StationConfig::paper();
        let (mut attempted, mut failed) = (0, 0);
        self.phase_counts.clear();
        for cell_index in 0..self.cells.len() {
            if let Ok(tree) = &tree_v {
                let report = t.time("lint.config_lint", || config.lint(tree));
                std::hint::black_box(report);
            }
            let mut phase_rng = SimRng::new(self.run.seed ^ 0x9E3779B97F4A7C15);
            for trial in 0..per_cell {
                let got = self.phase_trial(cell_index, trial, &mut phase_rng, t);
                // The cell-by-cell repetition measured the same trial.
                let want = self.samples.get(cell_index).and_then(|s| s.get(trial));
                attempted += 1;
                if got.map(f64::to_bits) != want.copied().map(f64::to_bits) {
                    failed += 1;
                }
            }
        }
        t.exit(root, attempted);
        (attempted, failed)
    }

    fn layer_metrics(&self, t: &Tracer) -> Vec<(&'static str, f64)> {
        let ms = |name: &str, q: f64| quantile(&t.durations_s(name), q) * 1e3;
        let us = |name: &str| median(&t.durations_s(name)) * 1e6;
        let (run_s, _) = t.totals("mercury.run_for");
        let (warm_s, _) = t.totals("mercury.warm_up");
        let trials = self.phase_counts.len() as u64;
        let events: u64 = self.phase_counts.iter().map(|c| c.0).sum();
        let trace_events: u64 = self.phase_counts.iter().map(|c| c.1).sum();
        vec![
            ("harness.trial_ms_p50", ms("bench.trial", 0.5)),
            ("harness.trial_ms_p90", ms("bench.trial", 0.9)),
            (
                "harness.measure_cell_ms_p50",
                ms("harness.measure_cell_samples", 0.5),
            ),
            ("harness.summary_us", us("harness.summary_of")),
            ("harness.render_ms", ms("harness.render", 0.5)),
            ("mercury.station_new_us", us("mercury.station_new")),
            ("mercury.warm_up_ms", ms("mercury.warm_up", 0.5)),
            ("mercury.run_for_ms", ms("mercury.run_for", 0.5)),
            (
                "mercury.measure_recovery_us",
                us("mercury.measure_recovery"),
            ),
            ("mercury.station_drop_us", us("mercury.station_drop")),
            ("lint.config_lint_us", us("lint.config_lint")),
            (
                "sim.ns_per_event.station",
                per((run_s + warm_s) * 1e9, events),
            ),
            ("sim.events_total.table4", events as f64),
            ("sim.events_per_trial", per(events as f64, trials)),
            (
                "sim.trace_events_per_trial",
                per(trace_events as f64, trials),
            ),
        ]
    }
}
