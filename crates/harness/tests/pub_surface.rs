#![allow(clippy::disallowed_methods)]
//! Every `pub` item of a library has a user in another file. For each
//! `pub fn|struct|enum|trait|type|const|static` declared in `crates/*/src`
//! (binaries under `src/bin` and everything from a file's first
//! `#[cfg(test)]` on left out), some other `.rs` file under `crates/`,
//! `src/`, `tests/`, `examples/` or `benchmark/src` must name it as a whole
//! word in code: comments and `pub use` re-exports do not count. A type
//! named in the signature of another `pub` item of its own file (a `pub fn`
//! up to its body, a `pub` field) counts as named: it is part of that item's
//! interface, and a private one trips `private_interfaces`. An item only its
//! own file uses should not be `pub`; one only its own unit tests use should
//! not exist. Names are matched as words, not resolved, so two items sharing
//! a name cover each other: this guards against the common case, it proves
//! nothing.

use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};

/// `pub` items that no other file names but that must stay `pub`, with why.
const ALLOWED: &[(&str, &str)] = &[
    ("BUS_LATENCY_S", CALIBRATION),
    ("DIRECT_LATENCY_S", CALIBRATION),
    ("EXEC_DELAY_S", CALIBRATION),
    ("TIMING", CALIBRATION),
];

const CALIBRATION: &str = "a `mercury::config::calib` constant: DESIGN.md §5 tabulates the \
    calibration as public, and a unit test holds that table to these values";

/// Every `.rs` file under `dir`, recursively, build output left out.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source directory is readable") {
        let path = entry.expect("directory entry is readable").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The lines of `text` that are code: comment lines and `pub use`
/// re-exports (with their continuation lines) dropped.
fn code_lines(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut in_reexport = false;
    for line in text.lines() {
        let t = line.trim_start();
        if in_reexport || t.starts_with("pub use ") {
            in_reexport = !t.ends_with(';');
        } else if !t.starts_with("//") {
            out.push(line);
        }
    }
    out
}

/// The identifiers `line` mentions.
fn words(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}

/// The words the `pub` signatures among `lines` name: each line from one
/// starting `pub ` (not `pub use` or `pub mod`) through the first that ends
/// in `{` or `;`, or, outside a `fn`, in `,`.
fn interface_words<'a>(lines: &[&'a str]) -> BTreeSet<&'a str> {
    let mut out = BTreeSet::new();
    // `Some(is_fn)` while inside a signature.
    let mut signature: Option<bool> = None;
    for line in lines {
        let t = line.trim();
        if signature.is_none() {
            let Some(rest) = t.strip_prefix("pub ") else {
                continue;
            };
            if rest.starts_with("use ") || rest.starts_with("mod ") {
                continue;
            }
            let rest = ["const ", "unsafe ", "async "].iter().fold(rest, |r, q| {
                r.strip_prefix(q)
                    .filter(|r| r.starts_with("fn "))
                    .unwrap_or(r)
            });
            signature = Some(rest.starts_with("fn "));
        }
        // The declared name itself is not an interface mention.
        let name = declared(line);
        out.extend(words(t).filter(|w| Some(*w) != name));
        let is_fn = signature == Some(true);
        if t.ends_with('{') || t.ends_with(';') || (!is_fn && t.ends_with(',')) {
            signature = None;
        }
    }
    out
}

/// The name `line` declares `pub` (not `pub(crate)`), if it declares a
/// `fn`, `struct`, `enum`, `trait`, `type`, `const` or `static`.
fn declared(line: &str) -> Option<&str> {
    let mut rest = line.trim_start().strip_prefix("pub ")?;
    for qualifier in ["const ", "unsafe ", "async "] {
        if let Some(r) = rest
            .strip_prefix(qualifier)
            .filter(|r| r.starts_with("fn "))
        {
            rest = r;
        }
    }
    let kind = [
        "fn ", "struct ", "enum ", "trait ", "type ", "const ", "static ",
    ]
    .into_iter()
    .find(|k| rest.starts_with(k))?;
    words(&rest[kind.len()..]).next()
}

/// `(file, name)` for every `pub` item that no other file names.
fn unnamed_pub_items(root: &Path) -> Vec<(String, String)> {
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark/src"] {
        rust_files(&root.join(dir), &mut files);
    }
    files.sort();
    let texts: Vec<String> = files
        .iter()
        .map(|f| std::fs::read_to_string(f).expect("source file is readable"))
        .collect();
    // Which files name each word, by index into `files`.
    let mut named_in: HashMap<&str, BTreeSet<usize>> = HashMap::new();
    for (i, text) in texts.iter().enumerate() {
        for line in code_lines(text) {
            for w in words(line) {
                named_in.entry(w).or_default().insert(i);
            }
        }
    }
    let mut unnamed = Vec::new();
    for (i, (file, text)) in files.iter().zip(&texts).enumerate() {
        let rel = file.strip_prefix(root).expect("under the root");
        let rel = rel.to_string_lossy().replace('\\', "/");
        let library = rel.starts_with("crates/") && rel.contains("/src/");
        if !library || rel.contains("/src/bin/") {
            continue;
        }
        let library_lines: Vec<&str> = code_lines(text)
            .into_iter()
            .take_while(|l| !l.contains("#[cfg(test)]"))
            .collect();
        let interface = interface_words(&library_lines);
        for line in &library_lines {
            let Some(name) = declared(line) else { continue };
            let elsewhere = named_in
                .get(name)
                .is_some_and(|s| s.iter().any(|&j| j != i));
            if !elsewhere && !interface.contains(name) && !ALLOWED.iter().any(|(n, _)| *n == name) {
                unnamed.push((rel.clone(), name.to_string()));
            }
        }
    }
    unnamed
}

#[test]
fn the_scanner_reads_declarations_and_code_only() {
    assert_eq!(
        declared("    pub fn run_until(&mut self)"),
        Some("run_until")
    );
    assert_eq!(declared("pub const fn new() -> Self"), Some("new"));
    assert_eq!(declared("pub const LIMIT: usize = 3;"), Some("LIMIT"));
    assert_eq!(declared("pub struct Sim<M> {"), Some("Sim"));
    assert_eq!(declared("pub(crate) fn hidden()"), None);
    assert_eq!(declared("pub mod engine;"), None);
    assert_eq!(declared("pub name: String,"), None);
    let text = "pub use a::{X,\n    Y};\n// Z here\nlet w = V::new();\n";
    let names: Vec<&str> = code_lines(text).into_iter().flat_map(words).collect();
    assert_eq!(names, ["let", "w", "V", "new"]);
}

#[test]
fn every_pub_item_is_named_by_another_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let unnamed = unnamed_pub_items(&root);
    assert!(
        unnamed.is_empty(),
        "{} `pub` items that no other file names; delete each one nothing \
         uses, drop `pub` from one only its own file uses, or allow it here \
         with the reason it must stay `pub`:\n{}",
        unnamed.len(),
        unnamed
            .iter()
            .map(|(file, name)| format!("{file}: {name}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
