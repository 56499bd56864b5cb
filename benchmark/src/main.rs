//! `rr-benchmark`: runs one workload in this process and reports what a user
//! of the workspace would wait for (`--trace 0`) or where that time goes,
//! layer by layer (`--trace 1`). `run.sh` builds and calls it; `README.md`
//! explains the workloads and metrics.

mod metrics;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use trace::Tracer;
use workloads::{median, Outcome};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest repetitions measured on each path, however short `--seconds` is.
const MIN_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale_div: u64,
    out: PathBuf,
}

const USAGE: &str = "usage: rr-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
                     [--scale-div N] [--out DIR] | --describe";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        scale_div: 1,
        out: PathBuf::from("benchmark/out"),
    };
    while let Some(flag) = argv.next() {
        if flag == "--describe" {
            return Ok(None);
        }
        let value = argv
            .next()
            .ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=600.0).contains(&args.seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale-div" => {
                args.scale_div = value.parse().map_err(|_| bad())?;
                if !(1..=1000).contains(&args.scale_div) {
                    return Err(bad());
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(Some(args))
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// One repetition's host time and outcome.
struct Rep {
    wall_s: f64,
    outcome: Outcome,
}

fn walls(reps: &[Rep]) -> Vec<f64> {
    reps.iter().map(|r| r.wall_s).collect()
}

/// Median over the repetitions of each workload-specific value.
fn median_values(reps: &[Rep]) -> Vec<(&'static str, f64)> {
    let Some(first) = reps.first() else {
        return Vec::new();
    };
    (0..first.outcome.values.len())
        .map(|i| {
            let samples: Vec<f64> = reps
                .iter()
                .filter_map(|r| r.outcome.values.get(i).map(|v| v.1))
                .collect();
            (first.outcome.values[i].0, median(&samples))
        })
        .collect()
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Every metric this run measured, by name.
    metrics: BTreeMap<&'static str, f64>,
    plain_walls: Vec<f64>,
    traced_walls: Vec<f64>,
}

fn run(args: &Args, tracer: &mut Tracer) -> Result<Report, String> {
    let (mut attempted, mut failed) = (0, 0);

    // Set-up, several times over: input generation from the seed plus one
    // repetition at one-fifth size that lets caches and the allocator settle.
    let mut setups = Vec::new();
    let mut workload = None;
    let mut warm_digest = None;
    for _ in 0..SETUPS {
        drop(workload.take());
        let start = Instant::now();
        let mut built =
            workloads::build(&args.workload, args.seed, args.scale_div).ok_or_else(|| {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
                format!("--workload must be one of {}", names.join(", "))
            })?;
        let warm = built.warm_up();
        setups.push(start.elapsed().as_secs_f64());
        attempted += warm.attempted + 1;
        failed += warm.failed + u64::from(*warm_digest.get_or_insert(warm.digest) != warm.digest);
        workload = Some(built);
    }
    let mut workload = workload.ok_or("no set-up ran")?;

    // Timed repetitions of fixed work until `--seconds` have passed. A traced
    // run alternates the plain and the instrumented path, so the tracing
    // overhead is measured inside one process.
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    // The plain and the instrumented path of the run.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut rep = 0;
    loop {
        rep += 1;
        let recording = args.trace && rep % 2 == 0;
        tracer.start_rep(rep, recording);
        let start = Instant::now();
        let outcome = workload.repetition(tracer);
        let wall_s = start.elapsed().as_secs_f64();
        let path = if recording { &mut traced } else { &mut plain };
        path.push(Rep { wall_s, outcome });
        let measured = path.len();
        let paired = !args.trace || plain.len() == traced.len();
        if paired && measured >= MIN_REPS && started.elapsed() >= budget {
            break;
        }
    }
    for path in [&plain, &traced] {
        for r in path {
            // One more operation per repetition: its digest must equal the
            // first one's on the same path.
            attempted += r.outcome.attempted + 1;
            failed += r.outcome.failed + u64::from(r.outcome.digest != path[0].outcome.digest);
        }
    }

    let plain_walls = walls(&plain);
    let wall_s = median(&plain_walls);
    let units = plain[0].outcome.units;
    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s", median(&setups));
    metrics.insert("wall_s", wall_s);
    metrics.insert("work_per_s", units / wall_s);
    metrics.extend(median_values(&plain));
    let spread = plain_walls.iter().fold(f64::MIN, |a, &b| a.max(b))
        - plain_walls.iter().fold(f64::MAX, |a, &b| a.min(b));
    metrics.insert("bench.rep_spread_frac", spread / wall_s);

    if args.trace {
        tracer.start_rep(0, true);
        let (probed, probe_failures) = workload.probes(tracer);
        attempted += probed;
        failed += probe_failures;
        metrics.extend(workload.layer_metrics(tracer));
        metrics.insert(
            "bench.tracing_overhead_frac",
            median(&walls(&traced)) / wall_s - 1.0,
        );
        metrics.insert("bench.span_coverage_frac", tracer.coverage_frac());
    }
    metrics.insert("ops_failed_frac", failed as f64 / attempted as f64);
    metrics.insert("proc.peak_rss_mb", peak_rss_mb());

    if let Some((name, value)) = metrics.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("metric {name} is not a number: {value}"));
    }
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        plain_walls,
        traced_walls: walls(&traced),
    })
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find_map(|(n, unit)| (n == name).then_some(unit))
        .unwrap_or("")
}

/// `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` with every
/// metric of `names`; a layer this workload never entered reads 0.
fn result_json(report: &Report, names: &[&'static str]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|name| {
            let value = report.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// Writes the run's files under `--out`: the full record, the span file of a
/// traced run, and one line appended to `runs.jsonl` for `compare.sh`.
fn write_files(args: &Args, report: &Report, tracer: &Tracer, result: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out)?;
    let list = |v: &[f64]| {
        let items: Vec<String> = v.iter().map(f64::to_string).collect();
        format!("[{}]", items.join(", "))
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let all: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value)| format!("\"{name}\": {value}"))
        .collect();
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"scale_div\": {}, \"nproc\": {nproc}, \"wall_s_reps\": {}, \"traced_wall_s_reps\": {}, \
         \"result\": {result}, \"all_metrics\": {{{}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.scale_div,
        list(&report.plain_walls),
        list(&report.traced_walls),
        all.join(", "),
    );
    let suffix = if args.trace { ".traced" } else { "" };
    std::fs::write(
        args.out.join(format!("{}{suffix}.json", args.workload)),
        format!("{record}\n"),
    )?;
    if args.trace {
        std::fs::write(
            args.out.join(format!("trace-{}.json", args.workload)),
            tracer.to_json(&args.workload),
        )?;
    }
    let mut runs = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(args.out.join("runs.jsonl"))?;
    writeln!(runs, "{record}")
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", metrics::describe());
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::new();
    let report = match run(&args, &mut tracer) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("rr-benchmark: {message}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# {} seed={} trace={} repetitions={}+{}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        report.plain_walls.len(),
        report.traced_walls.len()
    );
    for (name, value) in &report.metrics {
        println!("{name} {value} {}", unit_of(name));
    }
    let names: Vec<&'static str> = if args.trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let result = result_json(&report, &names);
    if let Err(e) = write_files(&args, &report, &tracer, &result) {
        eprintln!(
            "rr-benchmark: cannot write under {}: {e}",
            args.out.display()
        );
        return ExitCode::FAILURE;
    }
    println!("{result}");
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "rr-benchmark: {} of {} checked operations failed",
            report.failed, report.attempted
        );
        ExitCode::FAILURE
    }
}
