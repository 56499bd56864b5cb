//! `longrun_station`: one long-lived tree-V station per configuration,
//! hours of simulated time under the Table 1 failure mix, driven in one-hour
//! slices. Construction and warm-up are amortised to nothing; only the cost
//! per simulated event moves it.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};

use mercury::config::StationConfig;
use mercury::measure::{measure_recovery, system_downtime, MeasureError};
use mercury::station::{Station, TreeVariant};
use mercury_msg::{Envelope, Message, RadioBand, TelemetryFrame};
use rr_core::PerfectOracle;
use rr_sim::{Dist, ProcessState, SimDuration, SimRng};

use super::{median, per, quantile, Outcome, Workload};
use crate::trace::Tracer;

/// Simulated seconds per configuration in one repetition.
const HORIZON_S: u64 = 6 * 3600;
const SLICE_S: u64 = 3600;
/// No fault arrives in the last stretch of a run, so every episode can end
/// before the horizon.
const QUIET_TAIL_S: u64 = 600;
const CODEC_CALLS: u64 = 100_000;

/// A run's faults: `(seconds after the end of warm-up, component to kill)`.
type Schedule = Vec<(f64, String)>;

/// Seeded exponential arrivals for every mode of the paper's failure model,
/// as `experiments::endurance` draws them.
fn schedule(seed: u64, horizon_s: u64) -> Schedule {
    let last = horizon_s.saturating_sub(QUIET_TAIL_S.min(horizon_s / 3)) as f64;
    let mut rng = SimRng::new(seed ^ 0xFA17);
    let mut faults = Vec::new();
    for mode in StationConfig::paper().paper_failure_model().modes() {
        let arrivals = Dist::exponential(mode.mttf_s());
        let mut at = arrivals.sample_secs(&mut rng);
        while at < last {
            faults.push((at, mode.trigger.clone()));
            at += arrivals.sample_secs(&mut rng);
        }
    }
    faults.sort_by(|a, b| a.0.total_cmp(&b.0));
    faults
}

struct Input {
    horizon_s: u64,
    /// One schedule per configuration (paper, hardened).
    schedules: [Schedule; 2],
}

impl Input {
    fn new(seed: u64, horizon_s: u64) -> Input {
        Input {
            horizon_s,
            schedules: [
                schedule(seed, horizon_s),
                schedule(seed ^ 0x4A8D, horizon_s),
            ],
        }
    }
}

/// What one station's run produced.
#[derive(Default)]
struct Half {
    injected: u64,
    cured: u64,
    quarantined: u64,
    /// Faults cured by a restart that another, overlapping episode issued
    /// (say pbcom's joint [fedr, pbcom] restart while fedr is also down): the
    /// component comes back, but `measure_recovery` finds no restart keyed
    /// by it and cannot give the fault a recovery time.
    absorbed: u64,
    recovery_total_s: f64,
    availability: f64,
    events: u64,
    trace_events: u64,
    run_s: f64,
    telemetry_events: u64,
    telemetry_json_bytes: u64,
}

/// Runs one station to the horizon under `faults`; `None` if the station API
/// refused a call.
fn station_run(
    seed: u64,
    hardened: bool,
    horizon_s: u64,
    faults: &Schedule,
    digest: &mut DefaultHasher,
    t: &mut Tracer,
) -> Option<Half> {
    let (config, name) = if hardened {
        (StationConfig::hardened(), "bench.station.hardened")
    } else {
        (StationConfig::paper(), "bench.station.paper")
    };
    let whole = t.enter(name);
    let station = t.time("mercury.station_new", || {
        Station::new(config, TreeVariant::V, Box::new(PerfectOracle::new()), seed)
    });
    let mut station = station.ok()?;
    t.time("mercury.warm_up", || station.warm_up());
    let start = station.now();
    let events_at_start = station.sim_mut().events_processed();
    let mut half = Half::default();
    let mut injected_at = Vec::new();
    let mut pending = faults.iter().peekable();
    let mut slice_end_s = 0;
    while slice_end_s < horizon_s {
        slice_end_s = (slice_end_s + SLICE_S).min(horizon_s);
        let events_before = station.sim_mut().events_processed();
        let open = t.enter("mercury.run_for_slice");
        while let Some((at_s, target)) = pending.next_if(|f| f.0 < slice_end_s as f64) {
            let at = start + SimDuration::from_secs_f64(*at_s);
            station.run_for(at.saturating_since(station.now()));
            // A fault on a component that is already down is skipped.
            if station.state_of(target).ok()? == ProcessState::Running {
                injected_at.push((target, station.inject_kill(target).ok()?));
            }
        }
        let slice_end = start + SimDuration::from_secs(slice_end_s);
        station.run_for(slice_end.saturating_since(station.now()));
        let events = station.sim_mut().events_processed() - events_before;
        half.run_s += t.exit(open, events).as_secs_f64();
    }
    let horizon = start + SimDuration::from_secs(horizon_s);
    let components = station.components().to_vec();
    let (downtime, availability) = t.time("mercury.system_downtime", || {
        system_downtime(station.trace(), &components, start, horizon)
    });
    half.availability = availability;
    half.injected = injected_at.len() as u64;
    for (target, at) in injected_at {
        let measured = t.time("mercury.measure_recovery", || {
            measure_recovery(station.trace(), target, at)
        });
        match measured {
            Ok(m) => {
                half.cured += 1;
                half.recovery_total_s += m.recovery_s();
                m.recovery_s().to_bits().hash(digest);
            }
            Err(MeasureError::GaveUp(_)) => half.quarantined += 1,
            Err(_) => {
                let ready = format!("ready:{target}");
                if station.trace().first_mark_at_or_after(at, &ready).is_some() {
                    half.absorbed += 1;
                }
            }
        }
    }
    // `paper()` keeps telemetry off, so only the hardened half has any.
    if hardened {
        let registry = station.telemetry();
        let json = t.time("sim.telemetry.to_json", || registry.to_json());
        let prometheus = t.time("sim.telemetry.to_prometheus", || registry.to_prometheus());
        half.telemetry_events = registry.events().len() as u64;
        half.telemetry_json_bytes = json.len() as u64;
        (json, prometheus).hash(digest);
    }
    half.events = station.sim_mut().events_processed() - events_at_start;
    half.trace_events = station.trace().len() as u64;
    (
        half.events,
        half.trace_events,
        downtime.as_secs_f64().to_bits(),
        half.injected,
        half.cured,
        half.absorbed,
    )
        .hash(digest);
    t.time("mercury.station_drop", || drop(station));
    t.exit(whole, half.events);
    Some(half)
}

pub struct LongrunStation {
    seed: u64,
    full: Input,
    fifth: Input,
    /// The last full repetition (paper, hardened), for the layer metrics.
    last: [Half; 2],
}

impl LongrunStation {
    pub fn new(seed: u64, scale_div: u64) -> LongrunStation {
        // Below half an hour a run may see no fault at all.
        let horizon = |div: u64| (HORIZON_S / div).max(1800);
        LongrunStation {
            seed,
            full: Input::new(seed, horizon(scale_div)),
            fifth: Input::new(seed, horizon(scale_div * 5)),
            last: Default::default(),
        }
    }

    fn run(&self, input: &Input, t: &mut Tracer) -> (Outcome, [Half; 2]) {
        let root = t.enter("bench.repetition");
        let mut digest = DefaultHasher::new();
        let mut out = Outcome::default();
        let halves = [false, true].map(|hardened| {
            let faults = &input.schedules[usize::from(hardened)];
            // One operation per station run, one per injected fault.
            out.attempted += 1;
            let half = catch_unwind(AssertUnwindSafe(|| {
                station_run(self.seed, hardened, input.horizon_s, faults, &mut digest, t)
            }));
            let half = match half {
                Ok(Some(half)) if half.availability > 0.0 && half.availability <= 1.0 => half,
                _ => {
                    out.failed += 1;
                    Half::default()
                }
            };
            out.attempted += half.injected;
            out.failed += half.injected - half.cured - half.quarantined - half.absorbed;
            half
        });
        t.exit(root, 0);
        let [paper, hardened] = &halves;
        out.digest = digest.finish();
        out.units = (2 * input.horizon_s) as f64;
        out.values = vec![
            ("sim_mttr_s", per(paper.recovery_total_s, paper.cured)),
            ("sim_availability", paper.availability),
            ("mercury.hardened_over_paper", hardened.run_s / paper.run_s),
            (
                "sim.ns_per_event.station",
                per(
                    (paper.run_s + hardened.run_s) * 1e9,
                    paper.events + hardened.events,
                ),
            ),
        ];
        (out, halves)
    }
}

/// Encodes and parses one message kind `CODEC_CALLS` times; returns how many
/// parses did not give the message back.
fn codec_probe(t: &mut Tracer, encode: &'static str, parse: &'static str, body: Message) -> u64 {
    let envelope = Envelope::new("fd", "rtu", 4242, body);
    let mut wire = String::new();
    let open = t.enter(encode);
    for _ in 0..CODEC_CALLS {
        wire = std::hint::black_box(&envelope).to_xml_string();
    }
    t.exit(open, CODEC_CALLS);
    let mut failed = 0;
    let open = t.enter(parse);
    for _ in 0..CODEC_CALLS {
        if Envelope::parse(std::hint::black_box(&wire)).as_ref() != Ok(&envelope) {
            failed += 1;
        }
    }
    t.exit(open, CODEC_CALLS);
    failed
}

impl Workload for LongrunStation {
    fn warm_up(&mut self) -> Outcome {
        self.run(&self.fifth, &mut Tracer::new()).0
    }

    fn repetition(&mut self, t: &mut Tracer) -> Outcome {
        let (out, halves) = self.run(&self.full, t);
        self.last = halves;
        out
    }

    /// The codec on the message kinds a station emits, outside any station.
    fn probes(&mut self, t: &mut Tracer) -> (u64, u64) {
        let root = t.enter("bench.codec_probe");
        let mut failed = codec_probe(
            t,
            "msg.encode.ping",
            "msg.parse.ping",
            Message::Ping { seq: 86_400 },
        );
        failed += codec_probe(
            t,
            "msg.encode.command",
            "msg.parse.command",
            Message::TuneRadio {
                frequency_hz: 437_100_000.0,
                band: RadioBand::Uhf,
            },
        );
        let frame = TelemetryFrame::new(4242, b"frame-004242".to_vec());
        let open = t.enter("msg.frame_hex_roundtrip");
        for _ in 0..CODEC_CALLS {
            let hex = std::hint::black_box(&frame).to_hex();
            if TelemetryFrame::from_hex(&hex).as_ref() != Ok(&frame) {
                failed += 1;
            }
        }
        t.exit(open, CODEC_CALLS);
        t.exit(root, 0);
        (3 * CODEC_CALLS, failed)
    }

    fn layer_metrics(&self, t: &Tracer) -> Vec<(&'static str, f64)> {
        let slices = t.durations_s("mercury.run_for_slice");
        let ms = |name: &str| median(&t.durations_s(name)) * 1e3;
        let us = |name: &str| median(&t.durations_s(name)) * 1e6;
        let ns_per_call = |name: &str| {
            let (s, calls) = t.totals(name);
            per(s * 1e9, calls)
        };
        // Within each station's run: is the last hour slower than the first?
        let per_station = self.full.horizon_s.div_ceil(SLICE_S) as usize;
        let last_over_first: Vec<f64> = slices
            .chunks_exact(per_station)
            .map(|run| run[per_station - 1] / run[0])
            .collect();
        let [paper, hardened] = &self.last;
        vec![
            ("mercury.station_new_us", us("mercury.station_new")),
            ("mercury.warm_up_ms", ms("mercury.warm_up")),
            (
                "mercury.measure_recovery_us",
                us("mercury.measure_recovery"),
            ),
            ("mercury.station_drop_us", us("mercury.station_drop")),
            ("mercury.slice_ms_p50", quantile(&slices, 0.5) * 1e3),
            ("mercury.slice_ms_p90", quantile(&slices, 0.9) * 1e3),
            ("mercury.slice_last_over_first", median(&last_over_first)),
            (
                "mercury.faults_injected",
                (paper.injected + hardened.injected) as f64,
            ),
            (
                "mercury.quarantined",
                (paper.quarantined + hardened.quarantined) as f64,
            ),
            (
                "sim.events_total.longrun",
                (paper.events + hardened.events) as f64,
            ),
            (
                "sim.trace_events.longrun",
                (paper.trace_events + hardened.trace_events) as f64,
            ),
            ("msg.encode_ns.ping", ns_per_call("msg.encode.ping")),
            ("msg.parse_ns.ping", ns_per_call("msg.parse.ping")),
            ("msg.encode_ns.command", ns_per_call("msg.encode.command")),
            ("msg.parse_ns.command", ns_per_call("msg.parse.command")),
            (
                "msg.frame_hex_roundtrip_ns",
                ns_per_call("msg.frame_hex_roundtrip"),
            ),
            ("sim.telemetry.events", hardened.telemetry_events as f64),
            ("sim.telemetry.to_json_ms", ms("sim.telemetry.to_json")),
            (
                "sim.telemetry.to_prometheus_ms",
                ms("sim.telemetry.to_prometheus"),
            ),
            (
                "sim.telemetry.json_bytes",
                hardened.telemetry_json_bytes as f64,
            ),
        ]
    }
}
