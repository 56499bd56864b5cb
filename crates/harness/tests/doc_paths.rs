#![allow(clippy::disallowed_methods)]
//! README.md and DESIGN.md name only files that exist: every backticked
//! token that looks like a file name must be the tail, at a `/` boundary, of
//! some file in the repository. A deletion that leaves a doc pointing at the
//! deleted file fails here, not in a reader's terminal.

use std::path::Path;

const DOCS: &[(&str, &str)] = &[
    ("README.md", include_str!("../../../README.md")),
    ("DESIGN.md", include_str!("../../../DESIGN.md")),
];

const EXTENSIONS: &str = ".rs .json .md .sh .toml .txt .scenario .scn .abs";

/// Every file under `dir` as `/`-prefixed, `/`-separated paths relative to
/// the repository root, build output and git metadata left out.
fn files_under(dir: &Path, rel: &str, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).expect("repository directory is readable") {
        let entry = entry.expect("directory entry is readable");
        let path = format!("{rel}/{}", entry.file_name().to_string_lossy());
        if entry.file_type().expect("file type is readable").is_dir() {
            if !["/target", "/.git", "/benchmark/target"].contains(&path.as_str()) {
                files_under(&entry.path(), &path, out);
            }
        } else {
            out.push(path);
        }
    }
}

#[test]
fn docs_name_only_files_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    files_under(&root, "", &mut files);
    let mut missing = Vec::new();
    for (doc, text) in DOCS {
        // Odd-numbered pieces of a split on '`' are the backticked spans.
        for token in text.split('`').skip(1).step_by(2) {
            let is_path = token
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_./-".contains(&b));
            if is_path
                && EXTENSIONS.split(' ').any(|e| token.ends_with(e))
                && !files.iter().any(|f| f.ends_with(&format!("/{token}")))
            {
                missing.push(format!("{doc}: `{token}`"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "docs name files that do not exist:\n{}",
        missing.join("\n")
    );
}

/// The names, extension dropped, of the entries of `dir` that `keep`
/// accepts, sorted.
fn entries(dir: &Path, keep: fn(&Path) -> bool) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("repository directory is readable")
        .map(|e| e.expect("directory entry is readable").path())
        .filter(|p| keep(p))
        .map(|p| {
            p.file_stem()
                .expect("entry has a name")
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

/// The words that follow `marker` in `text` (a name runs to the first byte
/// that is not alphanumeric or `_`), sorted and deduplicated.
fn names_after(text: &str, marker: &str) -> Vec<String> {
    let mut names: Vec<String> = text
        .split(marker)
        .skip(1)
        .map(|rest| {
            let end = rest.find(|c: char| !c.is_ascii_alphanumeric() && c != '_');
            rest[..end.unwrap_or(rest.len())].to_owned()
        })
        .collect();
    names.sort();
    names.dedup();
    names
}

/// The crate tables of README.md and DESIGN.md §3 have one `crates/<dir>`
/// row per directory under `crates/`, and the example lists of README.md
/// and the root crate's docs name exactly the files in `examples/`. A crate
/// or example deleted, added or renamed without its doc line fails here.
#[test]
fn docs_list_exactly_the_workspace_crates_and_examples() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let crates = entries(&root.join("crates"), |p| p.is_dir());
    let examples = entries(&root.join("examples"), |p| {
        p.extension().is_some_and(|x| x == "rs")
    });
    let mut wrong = Vec::new();
    for (doc, text) in DOCS {
        // The table under the `| Crate |` header, up to its first non-row line.
        let (_, table) = text
            .split_once("\n| Crate |")
            .expect("doc has a crate table");
        let rows: String = table
            .lines()
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .map(|l| l.split('|').nth(1).unwrap_or(""))
            .collect();
        let listed = names_after(&rows, "`crates/");
        if listed != crates {
            wrong.push(format!(
                "{doc} crate table lists {listed:?}, crates/ holds {crates:?}"
            ));
        }
    }
    for (doc, text) in [DOCS[0], ("src/lib.rs", include_str!("../../../src/lib.rs"))] {
        let listed = names_after(text, "cargo run --example ");
        if listed != examples {
            wrong.push(format!(
                "{doc} runs examples {listed:?}, examples/ holds {examples:?}"
            ));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
