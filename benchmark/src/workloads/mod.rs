//! The five workloads. Each is a closed loop of one client doing fixed,
//! seed-determined work; `README.md` records why each one is here.

use crate::trace::Tracer;

mod engine_fleet;
mod longrun_station;
mod model_audit;
mod store_journal;
mod table4_trials;

/// What one repetition did.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Digest of the repetition's outputs; every repetition of a run must
    /// produce the same one.
    pub digest: u64,
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// Benchmark-defined units of work done (trials, simulated seconds,
    /// events, checker verdicts, journal MB).
    pub units: f64,
    /// Workload-specific numbers, by metric name. Host-time ones vary
    /// between repetitions (the run reports their median); simulated ones
    /// must not.
    pub values: Vec<(&'static str, f64)>,
}

pub trait Workload {
    /// One repetition at one-fifth size with every check on, untraced.
    fn warm_up(&mut self) -> Outcome;

    /// One full-size repetition. Takes the instrumented path, which calls
    /// the layers one by one, exactly when `t.recording()`.
    fn repetition(&mut self, t: &mut Tracer) -> Outcome;

    /// Layer measurements that are not part of a repetition (codec calls,
    /// a second input size); run once, after the last repetition of a traced
    /// run. Returns operations attempted and failed.
    fn probes(&mut self, _t: &mut Tracer) -> (u64, u64) {
        (0, 0)
    }

    /// Per-layer metrics derived from the recorded spans.
    fn layer_metrics(&self, t: &Tracer) -> Vec<(&'static str, f64)>;
}

/// Builds a workload's inputs from `seed`. Every size is divided by
/// `scale_div` (1 for a real run, 50 for `--smoke`).
pub fn build(name: &str, seed: u64, scale_div: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "table4_trials" => Box::new(table4_trials::Table4Trials::new(seed, scale_div)),
        "longrun_station" => Box::new(longrun_station::LongrunStation::new(seed, scale_div)),
        "engine_fleet" => Box::new(engine_fleet::EngineFleet::new(seed, scale_div)),
        "model_audit" => Box::new(model_audit::ModelAudit::new(scale_div)),
        "store_journal" => Box::new(store_journal::StoreJournal::new(seed, scale_div)),
        _ => return None,
    })
}

/// Median of an unsorted sample; 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Interpolated quantile of an unsorted sample; 0 for an empty one.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    rr_sim::stats::percentile(&sorted, q)
}

/// `total / count`, or 0 when nothing was counted.
pub fn per(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}
