#![allow(clippy::disallowed_methods)]
//! Every campaign of the harness builds, warms and runs its station through
//! `rr_harness::trial::Trial`: no `crates/harness/src` file other than
//! `trial.rs` builds a station or warms one up, and `trial.rs` does each once.
//! Comment lines are left out. Kept as a test because a `! grep` line in a
//! `set -e` script can never fail.

use std::path::{Path, PathBuf};

/// The calls only `Trial` makes.
const CALLS: [&str; 3] = ["Station::new(", "Station::with_tree(", ".warm_up()"];

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source directory is readable") {
        let path = entry.expect("directory entry is readable").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The calls of [`CALLS`] on `line`, unless it is a comment.
fn calls(line: &str) -> impl Iterator<Item = &'static str> + '_ {
    let code = !line.trim_start().starts_with("//");
    CALLS
        .into_iter()
        .filter(move |call| code && line.contains(call))
}

#[test]
fn the_matcher_skips_comments() {
    let call = |text: &str| calls(text).collect::<Vec<_>>();
    assert_eq!(call("    station.warm_up();"), [".warm_up()"]);
    assert_eq!(
        call("let s = Station::new(cfg, v, o, 1)?;"),
        ["Station::new("]
    );
    assert!(call("    /// [`Station::new`] refuses").is_empty());
    assert!(call("    // station.warm_up();").is_empty());
}

#[test]
fn only_trial_builds_and_warms_a_station() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = Vec::new();
    rust_files(&src, &mut files);
    assert!(files.len() > 10, "found only {} source files", files.len());
    let mut outside = Vec::new();
    let mut in_trial = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path).expect("source file is readable");
        let shown = path
            .strip_prefix(&src)
            .unwrap_or(path)
            .display()
            .to_string();
        for (i, line) in text.lines().enumerate() {
            for call in calls(line) {
                if shown == "trial.rs" {
                    in_trial.push(call);
                } else {
                    outside.push(format!(
                        "crates/harness/src/{shown}:{}: {}",
                        i + 1,
                        line.trim()
                    ));
                }
            }
        }
    }
    assert!(
        outside.is_empty(),
        "build stations through rr_harness::trial::Trial (start or run):\n{}",
        outside.join("\n")
    );
    in_trial.sort_unstable();
    assert_eq!(in_trial, [".warm_up()", "Station::new("], "trial.rs");
}
