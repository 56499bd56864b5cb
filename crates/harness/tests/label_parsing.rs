#![allow(clippy::disallowed_methods)]
//! Recovery-protocol facts are typed (`rr_sim::Mark`), so no library code
//! takes a trace label apart: up to each file's first `#[cfg(test)]`, no
//! `crates/*/src` file calls `strip_prefix` on a `"tag:` literal (`tag` in
//! `[a-z-]*`). This is ROADMAP item 4's done-when grep, kept as a test
//! because a `! grep` line in a `set -e` script can never fail.

use std::path::{Path, PathBuf};

const CALL: &str = "strip_prefix(\"";

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

/// `true` if `line` calls `strip_prefix` on a `"[a-z-]*:` literal.
fn splits_a_label(line: &str) -> bool {
    line.match_indices(CALL).any(|(at, _)| {
        let rest = &line.as_bytes()[at + CALL.len()..];
        let tag = rest
            .iter()
            .take_while(|b| b.is_ascii_lowercase() || **b == b'-')
            .count();
        rest.get(tag) == Some(&b':')
    })
}

#[test]
fn the_matcher_finds_label_splits_only() {
    // Built from `CALL`, so this file does not match the grep it replaces.
    let call = |rest: &str| format!("label.{CALL}{rest}");
    assert!(splits_a_label(&call(r#"restart:")?"#)));
    assert!(splits_a_label(&call(r#"induced-crash:")"#)));
    assert!(!splits_a_label(&call(r#"R_")"#)));
    assert!(!splits_a_label(r#"label.starts_with("restart:")"#));
}

#[test]
fn library_code_does_not_split_trace_labels() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for krate in std::fs::read_dir(&crates).expect("crates/ is readable") {
        let src = krate
            .expect("directory entry is readable")
            .path()
            .join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() > 50, "found only {} source files", files.len());
    let mut offenders = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path).expect("source file is readable");
        let library = text.split("#[cfg(test)]").next().unwrap_or_default();
        for (i, line) in library.lines().enumerate() {
            if splits_a_label(line) {
                let shown = path.strip_prefix(&crates).unwrap_or(path).display();
                offenders.push(format!("crates/{shown}:{}: {}", i + 1, line.trim()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "library code parses trace labels; match on rr_sim::Mark instead:\n{}",
        offenders.join("\n")
    );
}
