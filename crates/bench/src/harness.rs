//! A small Criterion-free timing harness (the workspace builds offline and
//! carries no external dependencies).
//!
//! Each bench target is a plain `fn main` that creates a [`Runner`] and
//! registers closures with [`Runner::bench`] (wall time per iteration) or
//! [`Runner::bench_events`] (also reports throughput as events/sec).
//! Invocation matches what cargo passes to `harness = false` targets:
//!
//! * `cargo bench -p rr-bench` — full timed run;
//! * `cargo bench -p rr-bench -- <substring>` — only matching benchmarks;
//! * `--test` (from `cargo test --benches`) — run every closure once,
//!   untimed, as a smoke test;
//! * `-- --json PATH` — also write the results as JSON (the
//!   `BENCH_micro.json` schema: see the README "Benchmarks" section);
//! * `-- --baseline PATH` — after the run, compare the **gated** records
//!   (the derived in-run speedups from [`Runner::record_speedup`])
//!   against a previously written JSON file and **exit nonzero** if any
//!   regressed by more than [`REGRESSION_TOLERANCE`] (the CI bench-smoke
//!   gate). Absolute events/sec is reported but never gated: it drifts
//!   20-40% with machine load, while the in-run speedup ratios cancel the
//!   drift.

use std::time::{Duration, Instant};

/// Target measurement time per benchmark.
const TARGET: Duration = Duration::from_millis(200);
/// Hard cap on iterations, so cheap closures do not run forever.
const MAX_ITERS: u64 = 100_000;
/// Allowed events/sec regression versus the baseline before
/// [`Runner::finish`] fails (0.20 = 20%, the CI gate from the PR issue).
pub const REGRESSION_TOLERANCE: f64 = 0.20;

/// One completed measurement.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name (`group/sub/name`).
    pub name: String,
    /// Mean wall time per iteration in nanoseconds.
    pub ns_per_iter: f64,
    /// Timed iterations contributing to the mean.
    pub iters: u64,
    /// Work items processed per iteration, when the benchmark declared a
    /// throughput denominator via [`Runner::bench_events`].
    pub events_per_iter: Option<u64>,
    /// Whether the regression gate compares this record. Only the derived
    /// speedup records from [`Runner::record_speedup`] are gated: absolute
    /// events/sec drifts with machine load, while an in-run time ratio
    /// cancels the drift.
    pub gated: bool,
}

impl BenchResult {
    /// Throughput in events per second, when a denominator was declared.
    pub fn events_per_sec(&self) -> Option<f64> {
        self.events_per_iter
            .map(|n| n as f64 / (self.ns_per_iter / 1e9))
    }
}

/// Collects and runs registered benchmarks according to CLI arguments.
#[derive(Debug)]
pub struct Runner {
    filter: Option<String>,
    smoke: bool,
    json_path: Option<String>,
    baseline_path: Option<String>,
    results: Vec<BenchResult>,
}

impl Runner {
    /// Builds a runner from `std::env::args`: the first non-flag argument is
    /// a substring filter; `--test` selects untimed smoke mode; `--json PATH`
    /// and `--baseline PATH` configure result emission and the regression
    /// gate (see the module docs).
    pub fn from_env() -> Runner {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut filter = None;
        let mut smoke = false;
        let mut json_path = None;
        let mut baseline_path = None;
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            if arg == "--test" {
                smoke = true;
            } else if arg == "--json" {
                json_path = args.get(i + 1).cloned();
                i += 1;
            } else if let Some(p) = arg.strip_prefix("--json=") {
                json_path = Some(p.to_string());
            } else if arg == "--baseline" {
                baseline_path = args.get(i + 1).cloned();
                i += 1;
            } else if let Some(p) = arg.strip_prefix("--baseline=") {
                baseline_path = Some(p.to_string());
            } else if !arg.starts_with('-') && filter.is_none() {
                filter = Some(arg.clone());
            }
            i += 1;
        }
        Runner {
            filter,
            smoke,
            json_path,
            baseline_path,
            results: Vec::new(),
        }
    }

    /// Runs one benchmark: warm-up, iteration-count calibration, then a
    /// timed batch, reporting mean wall time per iteration.
    pub fn bench<R>(&mut self, name: &str, f: impl FnMut() -> R) {
        self.run_one(name, None, f);
    }

    /// Like [`Runner::bench`], but the closure processes `events_per_iter`
    /// work items per call, so the report (and the JSON record) includes
    /// throughput in events/sec — the unit the regression gate compares.
    pub fn bench_events<R>(&mut self, name: &str, events_per_iter: u64, f: impl FnMut() -> R) {
        self.run_one(name, Some(events_per_iter), f);
    }

    fn run_one<R>(&mut self, name: &str, events_per_iter: Option<u64>, mut f: impl FnMut() -> R) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        if self.smoke {
            std::hint::black_box(f());
            println!("{name}: ok (smoke)");
            return;
        }
        // Warm up and estimate a single iteration.
        let start = Instant::now();
        std::hint::black_box(f());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let iters = (TARGET.as_nanos() / once.as_nanos()).clamp(1, MAX_ITERS as u128) as u64;
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let total = start.elapsed();
        let ns_per_iter = total.as_nanos() as f64 / iters as f64;
        let result = BenchResult {
            name: name.to_string(),
            ns_per_iter,
            iters,
            events_per_iter,
            gated: false,
        };
        match result.events_per_sec() {
            Some(eps) => println!(
                "{name}: {} ({iters} iters, {} events/sec)",
                format_ns(ns_per_iter),
                format_rate(eps)
            ),
            None => println!("{name}: {} ({iters} iters)", format_ns(ns_per_iter)),
        }
        self.results.push(result);
    }

    /// Records a derived benchmark whose "events/sec" is the speedup of
    /// `fast` over `slow` (wall-time ratio, scaled ×1000 so the integer
    /// JSON field keeps three decimal places).
    ///
    /// Both inputs are measured in the same process seconds apart, so the
    /// ratio cancels machine-speed drift that makes absolute events/sec
    /// ungateable on shared hardware — this is what the CI bench-smoke
    /// step's regression gate compares. Skipped silently if either input
    /// did not run (e.g. it was excluded by the filter).
    pub fn record_speedup(&mut self, name: &str, fast: &str, slow: &str) {
        if self.smoke {
            return;
        }
        let ns = |n: &str| {
            self.results
                .iter()
                .find(|r| r.name == n)
                .map(|r| r.ns_per_iter)
        };
        let (Some(fast_ns), Some(slow_ns)) = (ns(fast), ns(slow)) else {
            return;
        };
        let speedup = slow_ns / fast_ns;
        println!("{name}: {speedup:.2}x ({slow} / {fast})");
        self.results.push(BenchResult {
            name: name.to_string(),
            ns_per_iter: 1e9,
            iters: 1,
            events_per_iter: Some((speedup * 1000.0).round() as u64),
            gated: true,
        });
    }

    /// Records a raw deterministic counter (e.g. a model checker's distinct
    /// state count) as an untimed record: with the 1 s pseudo-iteration,
    /// `events_per_sec` equals `count`, so committed BENCH files expose the
    /// value directly without rerunning the workload.
    pub fn record_count(&mut self, name: &str, count: u64) {
        if self.smoke {
            return;
        }
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        println!("{name}: {count}");
        self.results.push(BenchResult {
            name: name.to_string(),
            ns_per_iter: 1e9,
            iters: 1,
            events_per_iter: Some(count),
            gated: false,
        });
    }

    /// Records a derived **gated** record whose "events/sec" is
    /// `numerator / denominator` scaled ×1000 (three decimal places survive
    /// the integer JSON field). Unlike wall-time speedups this needs no
    /// drift cancelling at all when both counts are deterministic (the
    /// model checker's full-vs-reduced distinct-state ratio is), which is
    /// what makes the ratio safely gateable in CI.
    pub fn record_ratio(&mut self, name: &str, numerator: u64, denominator: u64) {
        if self.smoke || denominator == 0 {
            return;
        }
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        let ratio = numerator as f64 / denominator as f64;
        println!("{name}: {ratio:.2}x ({numerator} / {denominator})");
        self.results.push(BenchResult {
            name: name.to_string(),
            ns_per_iter: 1e9,
            iters: 1,
            events_per_iter: Some((ratio * 1000.0).round() as u64),
            gated: true,
        });
    }

    /// Completed measurements so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Writes the JSON report (if `--json` was given) and applies the
    /// baseline regression gate (if `--baseline` was given). Call at the
    /// end of `main`; the process exits nonzero on a regression beyond
    /// [`REGRESSION_TOLERANCE`] so CI fails loudly.
    pub fn finish(&self) {
        if self.smoke {
            return;
        }
        if let Some(path) = &self.json_path {
            let json = results_to_json(&self.results);
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("bench: cannot write {path}: {e}");
                std::process::exit(1);
            }
            println!("bench: wrote {path}");
        }
        if let Some(path) = &self.baseline_path {
            let baseline = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("bench: cannot read baseline {path}: {e}");
                    std::process::exit(1);
                }
            };
            if !self.compare_against(&parse_baseline(&baseline)) {
                std::process::exit(1);
            }
        }
    }

    /// Compares this run's events/sec to `baseline` `(name, events_per_sec)`
    /// pairs; returns `false` (after printing the offenders) if any shared
    /// benchmark regressed past the tolerance.
    fn compare_against(&self, baseline: &[(String, f64)]) -> bool {
        let mut ok = true;
        for (name, base_eps) in baseline {
            let Some(current) = self.results.iter().find(|r| &r.name == name) else {
                continue; // filtered out of this run: nothing to compare
            };
            let Some(eps) = current.events_per_sec() else {
                continue;
            };
            let ratio = eps / base_eps;
            let verdict = if ratio < 1.0 - REGRESSION_TOLERANCE {
                ok = false;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "bench-gate {name}: {} vs baseline {} ({:+.1}%) {verdict}",
                format_rate(eps),
                format_rate(*base_eps),
                (ratio - 1.0) * 100.0
            );
        }
        if !ok {
            eprintln!(
                "bench: events/sec regression beyond {:.0}% tolerance",
                REGRESSION_TOLERANCE * 100.0
            );
        }
        ok
    }
}

/// Serializes results in the committed `BENCH_micro.json` schema.
fn results_to_json(results: &[BenchResult]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"rr-bench/v1\",\n  \"benches\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"name\": \"{}\", ", r.name));
        out.push_str(&format!("\"ns_per_iter\": {:.1}, ", r.ns_per_iter));
        out.push_str(&format!("\"iters\": {}", r.iters));
        if let Some(n) = r.events_per_iter {
            out.push_str(&format!(", \"events_per_iter\": {n}"));
        }
        if let Some(eps) = r.events_per_sec() {
            out.push_str(&format!(", \"events_per_sec\": {eps:.0}"));
        }
        if r.gated {
            out.push_str(", \"gated\": true");
        }
        out.push('}');
        if i + 1 < results.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Extracts `(name, events_per_sec)` pairs for **gated** records from a
/// baseline file previously written by [`results_to_json`]. This is
/// deliberately not a general JSON parser — the harness only ever reads
/// files it wrote itself, one benchmark object per line.
fn parse_baseline(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        if !line.contains("\"gated\": true") {
            continue;
        }
        let Some(name) = extract_str(line, "\"name\": \"") else {
            continue;
        };
        if let Some(eps) = extract_num(line, "\"events_per_sec\": ") {
            out.push((name.to_string(), eps));
        }
    }
    out
}

fn extract_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(key)? + key.len()..];
    Some(&rest[..rest.find('"')?])
}

fn extract_num(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && c != '.' && c != '-')
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s/iter", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms/iter", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs/iter", ns / 1e3)
    } else {
        format!("{ns:.0} ns/iter")
    }
}

fn format_rate(eps: f64) -> String {
    if eps >= 1e9 {
        format!("{:.2}G", eps / 1e9)
    } else if eps >= 1e6 {
        format!("{:.2}M", eps / 1e6)
    } else if eps >= 1e3 {
        format!("{:.2}k", eps / 1e3)
    } else {
        format!("{eps:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_runner(filter: Option<&str>, smoke: bool) -> Runner {
        Runner {
            filter: filter.map(String::from),
            smoke,
            json_path: None,
            baseline_path: None,
            results: Vec::new(),
        }
    }

    #[test]
    fn bench_runs_and_reports() {
        let mut r = test_runner(None, true);
        let mut n = 0u32;
        r.bench("unit/counting", || n += 1);
        assert_eq!(n, 1, "smoke mode runs exactly once");
    }

    #[test]
    fn filter_skips_non_matching() {
        let mut r = test_runner(Some("match-me"), true);
        let mut hits = 0u32;
        r.bench("other/bench", || hits += 100);
        r.bench("group/match-me", || hits += 1);
        assert_eq!(hits, 1);
    }

    #[test]
    fn format_scales_units() {
        assert!(format_ns(12.0).ends_with("ns/iter"));
        assert!(format_ns(12_000.0).ends_with("µs/iter"));
        assert!(format_ns(12_000_000.0).ends_with("ms/iter"));
        assert!(format_ns(2e9).ends_with("s/iter"));
        assert_eq!(format_rate(2_500_000.0), "2.50M");
        assert_eq!(format_rate(999.0), "999");
    }

    #[test]
    fn events_per_sec_derives_from_denominator() {
        let r = BenchResult {
            name: "x".into(),
            ns_per_iter: 1_000_000.0, // 1 ms
            iters: 10,
            events_per_iter: Some(1000),
            gated: false,
        };
        let eps = r.events_per_sec().unwrap_or(0.0);
        assert!((eps - 1_000_000.0).abs() < 1.0, "1k events per ms = 1M/s");
    }

    #[test]
    fn json_round_trips_through_baseline_parser() {
        let results = vec![
            BenchResult {
                name: "micro/queue/wheel".into(),
                ns_per_iter: 1234.5,
                iters: 100,
                events_per_iter: Some(1000),
                gated: true,
            },
            BenchResult {
                name: "micro/plain".into(),
                ns_per_iter: 99.0,
                iters: 7,
                events_per_iter: None,
                gated: false,
            },
        ];
        let json = results_to_json(&results);
        let parsed = parse_baseline(&json);
        assert_eq!(parsed.len(), 1, "only gated records are compared");
        assert_eq!(parsed[0].0, "micro/queue/wheel");
        let want = results[0].events_per_sec().unwrap_or(0.0);
        assert!((parsed[0].1 - want).abs() / want < 1e-3);
    }

    #[test]
    fn speedup_records_scaled_time_ratio() {
        let mut r = test_runner(None, false);
        for (name, ns) in [("q/fast", 1_000.0), ("q/slow", 12_345.0)] {
            r.results.push(BenchResult {
                name: name.into(),
                ns_per_iter: ns,
                iters: 1,
                events_per_iter: None,
                gated: false,
            });
        }
        r.record_speedup("q/speedup", "q/fast", "q/slow");
        r.record_speedup("q/missing", "q/fast", "q/not-run");
        let derived = r.results.iter().find(|x| x.name == "q/speedup");
        let ratio = derived.and_then(|d| d.events_per_sec()).unwrap_or(0.0);
        assert!((ratio - 12_345.0).abs() < 1.0, "12.345x scaled by 1000");
        assert!(!r.results.iter().any(|x| x.name == "q/missing"));
    }

    #[test]
    fn count_and_ratio_records_expose_values_as_events_per_sec() {
        let mut r = test_runner(None, false);
        r.record_count("model/tree4/pair/full_distinct", 120_000);
        r.record_ratio("model/tree4/pair/reduction_ratio", 120_000, 20_000);
        r.record_ratio("model/zero", 1, 0);
        let count = r
            .results
            .iter()
            .find(|x| x.name == "model/tree4/pair/full_distinct")
            .and_then(|x| x.events_per_sec())
            .unwrap_or(0.0);
        assert!((count - 120_000.0).abs() < 1.0);
        let ratio = r
            .results
            .iter()
            .find(|x| x.name == "model/tree4/pair/reduction_ratio")
            .expect("ratio recorded");
        assert!(ratio.gated, "ratios are what the CI gate compares");
        assert!((ratio.events_per_sec().unwrap_or(0.0) - 6000.0).abs() < 1.0);
        assert!(!r.results.iter().any(|x| x.name == "model/zero"));
    }

    #[test]
    fn regression_gate_trips_past_tolerance() {
        let mut r = test_runner(None, false);
        r.results.push(BenchResult {
            name: "micro/q".into(),
            ns_per_iter: 1000.0,
            iters: 1,
            events_per_iter: Some(1000), // 1G events/sec
            gated: true,
        });
        let fine = vec![("micro/q".to_string(), 1.05e9)]; // -4.7%: within tolerance
        assert!(r.compare_against(&fine));
        let too_fast = vec![("micro/q".to_string(), 1.5e9)]; // -33%: regression
        assert!(!r.compare_against(&too_fast));
        let unknown = vec![("micro/other".to_string(), 1e9)]; // not in this run
        assert!(r.compare_against(&unknown));
    }
}
