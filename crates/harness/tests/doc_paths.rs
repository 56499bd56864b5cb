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
