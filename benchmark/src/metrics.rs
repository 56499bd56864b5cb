//! The benchmark's contract: workloads, metrics, units and bounds. This is
//! the one place they are written down; `BENCHMARK.json` at the repo root is
//! `rr-benchmark --describe`, and `run.sh --smoke` fails if the two differ.

pub const DEFAULT_SEED: u64 = 0xD52002;
pub const RUN_SECONDS: u64 = 12;

/// `(name, why)`.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "table4_trials",
        "The paper's Table 4: 33 cells of short-lived stations, so per-trial fixed costs \
         (construction, lint, cold boot) and the harness loop dominate; trials are independent.",
    ),
    (
        "longrun_station",
        "One long-lived serial station per config under the Table 1 fault mix: set-up is \
         amortised away, so only per-event cost (dispatch, XML codec, FD/REC, telemetry) moves it.",
    ),
    (
        "engine_fleet",
        "The bare engine with 20 000 actors and no codec: tens of thousands of pending events \
         instead of a station's few dozen, so queue, dispatch and spawn show and the codec cannot.",
    ),
    (
        "model_audit",
        "The checker to a verdict, full and partial-order-reduced, bypassing the simulator: \
         DFS, signature dedup and ample-set work shows here and nowhere else.",
    ),
    (
        "store_journal",
        "Journal appends beside recoveries (clean, torn, corrupt, checkpointed; 64 B and 1 KiB \
         records): a faster recover that costs append, or the reverse, shows.",
    ),
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Every one is reported by every workload and is never 0.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// `(name, unit, better)`. A workload that never calls into a layer reports
/// that layer's metrics as 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // What the paper measures, and the simulator's accuracy against it.
    // Deterministic for a seed: a speed-only change must leave them alone.
    ("sim_mttr_s", "sim_s", "lower"),
    ("sim_availability", "ratio", "higher"),
    ("paper_rel_err_max", "ratio", "lower"),
    ("ops_failed_frac", "ratio", "lower"),
    // Throughputs over part of a repetition.
    ("events_per_s", "1/s", "higher"),
    ("append_mb_per_s", "MB/s", "higher"),
    ("recover_mb_per_s", "MB/s", "higher"),
    // rr-harness
    ("harness.trial_ms_p50", "ms", "lower"),
    ("harness.trial_ms_p90", "ms", "lower"),
    ("harness.measure_cell_ms_p50", "ms", "lower"),
    ("harness.summary_us", "us", "lower"),
    ("harness.render_ms", "ms", "lower"),
    // mercury, rr-lint
    ("mercury.station_new_us", "us", "lower"),
    ("mercury.warm_up_ms", "ms", "lower"),
    ("mercury.run_for_ms", "ms", "lower"),
    ("mercury.measure_recovery_us", "us", "lower"),
    ("mercury.station_drop_us", "us", "lower"),
    ("lint.config_lint_us", "us", "lower"),
    ("mercury.slice_ms_p50", "ms", "lower"),
    ("mercury.slice_ms_p90", "ms", "lower"),
    ("mercury.slice_last_over_first", "ratio", "lower"),
    ("mercury.hardened_over_paper", "ratio", "lower"),
    ("mercury.faults_injected", "count", "higher"),
    ("mercury.quarantined", "count", "lower"),
    // rr-sim
    ("sim.ns_per_event.station", "ns", "lower"),
    ("sim.events_total.table4", "count", "lower"),
    ("sim.events_total.longrun", "count", "lower"),
    ("sim.events_per_trial", "count", "lower"),
    ("sim.trace_events_per_trial", "count", "lower"),
    ("sim.trace_events.longrun", "count", "lower"),
    ("sim.ns_per_event.bare", "ns", "lower"),
    ("sim.spawn_us_per_actor.2k", "us", "lower"),
    ("sim.spawn_us_per_actor.20k", "us", "lower"),
    ("sim.kill_respawn_us", "us", "lower"),
    ("sim.run_until_ms", "ms", "lower"),
    ("sim.telemetry.events", "count", "lower"),
    ("sim.telemetry.to_json_ms", "ms", "lower"),
    ("sim.telemetry.to_prometheus_ms", "ms", "lower"),
    ("sim.telemetry.json_bytes", "count", "lower"),
    // mercury-msg
    ("msg.encode_ns.ping", "ns", "lower"),
    ("msg.parse_ns.ping", "ns", "lower"),
    ("msg.encode_ns.command", "ns", "lower"),
    ("msg.parse_ns.command", "ns", "lower"),
    ("msg.frame_hex_roundtrip_ns", "ns", "lower"),
    // rr-model, rr-abs
    ("model.states_explored.full", "count", "lower"),
    ("model.states_explored.reduced", "count", "lower"),
    ("model.distinct.full", "count", "lower"),
    ("model.distinct.reduced", "count", "lower"),
    ("model.states_per_s.full", "1/s", "higher"),
    ("model.states_per_s.reduced", "1/s", "higher"),
    ("model.check_ms.iv_d12.full", "ms", "lower"),
    ("model.check_ms.iv_d12.reduced", "ms", "lower"),
    ("model.check_ms.v_rehy_d12.full", "ms", "lower"),
    ("model.check_ms.v_rehy_d12.reduced", "ms", "lower"),
    ("model.build_ms", "ms", "lower"),
    ("flow.analyze_ms", "ms", "lower"),
    ("abs.certify_ms", "ms", "lower"),
    // rr-store
    ("store.append_ns_per_record.64B", "ns", "lower"),
    ("store.append_ns_per_record.1KiB", "ns", "lower"),
    ("store.recover_ms.64B_clean", "ms", "lower"),
    ("store.recover_ms.64B_torn", "ms", "lower"),
    ("store.recover_ms.64B_corrupt", "ms", "lower"),
    ("store.recover_ms.1KiB_clean", "ms", "lower"),
    ("store.recover_ms.1KiB_torn", "ms", "lower"),
    ("store.recover_ms.1KiB_corrupt", "ms", "lower"),
    ("store.recover_ms.checkpointed", "ms", "lower"),
    ("store.recover_mb_per_s.64B_500k", "MB/s", "higher"),
    ("store.recover_mb_per_s.64B_50k", "MB/s", "higher"),
    ("store.replay_mb_per_s", "MB/s", "higher"),
    ("store.crc32_mb_per_s", "MB/s", "higher"),
    ("store.checkpoint_ms", "ms", "lower"),
    ("store.replayed_records", "count", "higher"),
    ("store.discarded_bytes", "count", "lower"),
    // The process and the benchmark itself.
    ("proc.peak_rss_mb", "MB", "lower"),
    ("bench.tracing_overhead_frac", "ratio", "lower"),
    ("bench.rep_spread_frac", "ratio", "lower"),
    ("bench.span_coverage_frac", "ratio", "higher"),
];

/// The contents of `BENCHMARK.json`.
pub fn describe() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
