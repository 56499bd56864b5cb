#![allow(clippy::disallowed_methods)]
//! The `rr-audit` command-line contract, one table row per invocation: exit
//! code `0` clean / `1` findings / `2` usage, I/O or exploration error, and
//! the tokens the output must carry. This is the fixture contract — every
//! clean fixture passes, every seeded-bug fixture is rejected for the reason
//! it was seeded with — and the only place the binary itself (argument
//! parsing, per-subcommand flag sets, report printing, exit codes) is run.

use std::path::PathBuf;
use std::process::Command;

/// One invocation, run from the repository root: arguments, exit code,
/// tokens stdout must contain, tokens stderr must contain.
type Row = (
    &'static [&'static str],
    i32,
    &'static [&'static str],
    &'static [&'static str],
);

/// A path no row may create: `--json` beside a fixture table is refused
/// before anything is written.
const UNWRITTEN_JSON: &str = concat!(env!("CARGO_TARGET_TMPDIR"), "/audit-cli-unwritten.json");

#[rustfmt::skip]
const ROWS: &[Row] = &[
    // Fixture pairs: the clean one passes, the seeded bug is rejected.
    (&["lint", "--deny-warnings", "tests/lint-fixtures/clean.fault"], 0, &["clean"], &[]),
    (&["lint", "tests/lint-fixtures/broken.fault"], 1,
        &["RRL502", "RRL503", "RRL504", "RRL505", "2 deny, 2 warn"], &[]),
    (&["model", "tests/model-fixtures/clean.scenario"], 0,
        &["3 quiescent), no violations"], &[]),
    (&["model", "tests/model-fixtures/broken.scenario"], 1,
        &["VIOLATION component-lost", "(2 steps, replayable)"], &[]),
    (&["model", "tests/model-fixtures/overload-clean.scenario"], 0,
        &["7 quiescent), no violations"], &[]),
    (&["model", "tests/model-fixtures/overload-starve.scenario"], 1,
        &["VIOLATION deferred-starved", "(3 steps, replayable)"], &[]),
    (&["model", "tests/model-fixtures/rehydrate-clean.scenario"], 0, &["no violations"], &[]),
    (&["model", "tests/model-fixtures/rehydrate-stale.scenario"], 1,
        &["VIOLATION liveness-unresolved-fault", "(4 steps, replayable)"], &[]),
    // The unsound independence assumption is rejected statically by flow and
    // caught dynamically by the differential run.
    (&["flow", "--quiet", "tests/model-fixtures/por-unsound.scenario"], 1, &["RRL953"], &[]),
    (&["model", "--differential", "tests/model-fixtures/por-clean.scenario"], 0,
        &["differential OK", "64 vs 10 distinct states (6.40x reduction)"], &[]),
    (&["model", "--differential", "tests/model-fixtures/por-unsound.scenario"], 1,
        &["DIFFERENTIAL DRIFT", "VIOLATION deferred-starved", "(5 steps, replayable)"], &[]),
    (&["abs", "--deny-warnings", "tests/abs-fixtures/clean.abs"], 0, &["clean"], &[]),
    (&["abs", "tests/abs-fixtures/broken.abs"], 1, &["RRL971", "RRL972", "2 deny, 1 warn"], &[]),
    // The four built-in audits.
    (&["lint", "--deny-warnings"], 0, &["clean"], &[]),
    (&["model"], 0,
        &["tree-V/naive/admit: depth 16 explored 4071 states (243 distinct, 10 quiescent), no violations",
          "rr-model hb tree5-overload-burst: 55 events, causally consistent"], &[]),
    (&["flow", "--deny-warnings", "--quiet"], 0, &["clean"], &[]),
    (&["abs", "--deny-warnings", "--quiet"], 0, &["clean"], &[]),
    // Exit 2: the message goes to stderr, nothing to stdout.
    (&[], 2, &[], &["rr-audit: missing subcommand", "usage: rr-audit <lint|model|flow|abs>"]),
    (&["check"], 2, &[], &["rr-audit: unknown subcommand \"check\""]),
    (&["abs", "--bogus"], 2, &[], &["rr-abs: unknown flag \"--bogus\"", "usage: rr-audit abs"]),
    (&["model", "nonexistent.scenario"], 2, &[],
        &["rr-model: cannot read \"nonexistent.scenario\""]),
    (&["lint", "--format", "xml"], 2, &[], &["rr-lint: unknown format \"xml\" (human|json)"]),
    // A flag another subcommand owns is still unknown here.
    (&["flow", "--json", "x"], 2, &[], &["rr-flow: unknown flag \"--json\""]),
    (&["abs", "--json", UNWRITTEN_JSON, "tests/abs-fixtures/clean.abs"], 2, &[],
        &["rr-abs: --json only applies to the built-in audit"]),
    (&["model", "--depth", "0"], 2, &[], &["rr-model: depth must be at least 1"]),
    // Help is not an error.
    (&["model", "--help"], 0, &["usage: rr-audit model [--depth N]"], &[]),
    (&["--help"], 0, &["usage: rr-audit <lint|model|flow|abs>"], &[]),
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn rr_audit(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rr-audit"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("rr-audit spawns");
    (
        out.status.code().expect("rr-audit exits, not killed"),
        String::from_utf8(out.stdout).expect("stdout is UTF-8"),
        String::from_utf8(out.stderr).expect("stderr is UTF-8"),
    )
}

#[test]
fn every_row_exits_and_prints_as_contracted() {
    let mut failures = Vec::new();
    for &(args, want_exit, want_stdout, want_stderr) in ROWS {
        let (exit, stdout, stderr) = rr_audit(args);
        let mut wrong = Vec::new();
        if exit != want_exit {
            wrong.push(format!("exit {exit}, expected {want_exit}"));
        }
        for (stream, text, tokens) in [
            ("stdout", &stdout, want_stdout),
            ("stderr", &stderr, want_stderr),
        ] {
            for token in tokens.iter().filter(|t| !text.contains(**t)) {
                wrong.push(format!("{stream} lacks {token:?}"));
            }
        }
        if want_exit == 2 && !stdout.is_empty() {
            wrong.push("exit 2 must print nothing to stdout".to_string());
        }
        if !wrong.is_empty() {
            failures.push(format!(
                "rr-audit {}: {}\n--- stdout ---\n{stdout}--- stderr ---\n{stderr}",
                args.join(" "),
                wrong.join("; ")
            ));
        }
    }
    assert!(
        !PathBuf::from(UNWRITTEN_JSON).exists(),
        "a refused --json still wrote {UNWRITTEN_JSON}"
    );
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// `abs --json PATH` writes exactly the committed decision table.
#[test]
fn abs_json_writes_the_golden_decision_table() {
    let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/audit-cli-abs-decisions.json");
    let (exit, stdout, stderr) = rr_audit(&["abs", "--quiet", "--json", path]);
    assert_eq!((exit, stdout.as_str()), (0, "clean\n"), "{stderr}");
    let written = std::fs::read(path).expect("--json wrote its file");
    let golden = std::fs::read(repo_root().join("tests/golden/abs-decisions.json"))
        .expect("committed decision table");
    assert!(written == golden, "{path} differs from the golden");
}
