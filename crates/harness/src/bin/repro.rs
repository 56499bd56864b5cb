//! `repro` — regenerate the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro [EXPERIMENT]... [--trials N] [--seed S] [--report PATH] [--dot-dir DIR]
//! ```
//!
//! `EXPERIMENT` is a name from [`rr_harness::experiments::EXPERIMENTS`] (the
//! usage line lists them; `table3` and `availability` are accepted as
//! aliases of `figures` and `headline`) or `all` (default).

use std::process::ExitCode;

use rr_harness::experiments::{self, Experiment, RunConfig, EXPERIMENTS};
use rr_harness::report;

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    format!(
        "usage: repro [EXPERIMENT]... [--trials N] [--seed S] [--report PATH] [--dot-dir DIR]\n\
         experiments: {} all",
        names.join(" ")
    )
}

fn usage_error() -> ! {
    eprintln!("{}", usage());
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut run = RunConfig::default();
    let mut selected: Vec<String> = Vec::new();
    let mut report_path: Option<String> = None;
    let mut dot_dir: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trials" => {
                let v = args.next().unwrap_or_else(|| usage_error());
                run.trials = v.parse().unwrap_or_else(|_| usage_error());
                if run.trials == 0 {
                    // A mean over no trials does not exist.
                    eprintln!("repro: --trials must be at least 1");
                    usage_error();
                }
            }
            "--seed" => {
                let v = args.next().unwrap_or_else(|| usage_error());
                run.seed = v.parse().unwrap_or_else(|_| usage_error());
            }
            "--report" => {
                report_path = Some(args.next().unwrap_or_else(|| usage_error()));
            }
            "--dot-dir" => {
                dot_dir = Some(args.next().unwrap_or_else(|| usage_error()));
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => usage_error(),
            other => selected.push(other.to_string()),
        }
    }
    if selected.is_empty() {
        selected.push("all".to_string());
    }

    let mut results: Vec<Experiment> = Vec::new();
    for name in &selected {
        let id = match name.as_str() {
            "table3" => "figures",
            "availability" => "headline",
            other => other,
        };
        match EXPERIMENTS.iter().find(|(known, _)| *known == id) {
            Some((_, experiment)) => results.push(experiment(run)),
            None if id == "all" => results.extend(experiments::all(run)),
            None => usage_error(),
        }
    }

    for exp in &results {
        println!("{}", exp.render());
    }

    if let Some(dir) = dot_dir {
        // Graphviz renders of the Figure 3-6 trees.
        use mercury::station::TreeVariant;
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("failed to create {dir}: {e}");
            return ExitCode::FAILURE;
        }
        for variant in TreeVariant::ALL {
            let dot = rr_core::render::render_dot(
                &variant
                    .tree()
                    .unwrap_or_else(|e| panic!("{}: {e:?}", "paper tree builds")),
            );
            let path = format!("{dir}/tree_{variant}.dot");
            if let Err(e) = std::fs::write(&path, dot) {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        println!("dot files written to {dir}/tree_*.dot");
    }

    if let Some(path) = report_path {
        let note = format!("trials per cell = {}, base seed = {}", run.trials, run.seed);
        let md = report::render_markdown(&results, &note);
        if let Err(e) = std::fs::write(&path, md) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("report written to {path}");
    }
    ExitCode::SUCCESS
}
