#![allow(clippy::disallowed_methods)]
//! A full satellite pass with a mid-pass failure: the workload the paper's
//! §5.2 worries about ("downtime during satellite passes is very expensive
//! because we may lose some science data and telemetry").
//!
//! ```text
//! cargo run --example ground_station --release
//! ```
//!
//! Predicts a real OPAL pass over Stanford with the Keplerian orbit model,
//! drives the tracker/tuner/radio pipeline through it, kills `rtu` mid-pass,
//! and compares the telemetry captured under tree I (full reboot) vs
//! tree V (partial restart).

use mercury::config::{names, StationConfig};
use mercury::measure::telemetry_frames;
use mercury::scenario::PassScenario;
use mercury::station::{Station, TreeVariant};
use rr_core::PerfectOracle;
use rr_sim::SimDuration;

fn run_pass(variant: TreeVariant, inject: bool) -> (usize, f64) {
    let mut cfg = StationConfig::paper();
    let plan = PassScenario::plan(&cfg, "opal", 120.0, 30.0, 20.0);
    cfg.pass_epoch_offset_s = plan.epoch_offset_s;
    let mut station =
        Station::new(cfg, variant, Box::new(PerfectOracle::new()), 42).expect("valid station");
    station.warm_up();
    let start = station.now();
    plan.start_tracking(&mut station);

    let mut recovery = 0.0;
    if inject {
        // Two minutes into the pass, rtu dies.
        let until = plan.rise_sim_time() + SimDuration::from_secs(120);
        let dur = until.saturating_since(station.now());
        station.run_for(dur);
        let injected = station.inject_kill(names::RTU).expect("known component");
        station.run_for(SimDuration::from_secs(60));
        if let Ok(m) = mercury::measure_recovery(station.trace(), names::RTU, injected) {
            recovery = m.recovery_s();
        }
    }

    let end = plan.set_sim_time() + SimDuration::from_secs(10);
    let dur = end.saturating_since(station.now());
    station.run_for(dur);
    (
        telemetry_frames(station.trace(), start, station.now()),
        recovery,
    )
}

fn main() {
    let cfg = StationConfig::paper();
    let plan = PassScenario::plan(&cfg, "opal", 120.0, 30.0, 20.0);
    println!(
        "Next OPAL pass over Stanford: rise at epoch {:.0}s, duration {:.0}s, peak elevation {:.1} deg\n",
        plan.window.rise_s,
        plan.window.duration_s(),
        plan.window.max_elevation_deg
    );
    println!(
        "Maximum telemetry the pass can deliver: ~{} frames at 1 frame/s\n",
        plan.max_frames()
    );

    println!(
        "{:<10} {:>16} {:>18} {:>14}",
        "tree", "frames (clean)", "frames (failure)", "recovery (s)"
    );
    for variant in [TreeVariant::I, TreeVariant::V] {
        let (clean, _) = run_pass(variant, false);
        let (faulty, recovery) = run_pass(variant, true);
        println!(
            "{:<10} {:>16} {:>18} {:>14.2}",
            variant.to_string(),
            clean,
            faulty,
            recovery
        );
    }
    println!(
        "\nThe partial restart (tree V) loses only the frames spanning one short\n\
         recovery; the full reboot (tree I) blacks out the pipeline for ~25s of\n\
         pass time — and a long enough outage would break the communication\n\
         link and lose the whole session (§5.2)."
    );
}
