#![allow(clippy::disallowed_methods)]
//! The `repro` command line: exit `0` with the tables on stdout, or exit `2`
//! with the reason and the usage on stderr and nothing on stdout.

use std::process::Command;

fn repro(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro spawns");
    (
        out.status.code().expect("repro exits, not killed"),
        String::from_utf8(out.stdout).expect("stdout is UTF-8"),
        String::from_utf8(out.stderr).expect("stderr is UTF-8"),
    )
}

#[test]
fn an_experiment_prints_its_tables() {
    let (exit, stdout, stderr) = repro(&["table1", "--trials", "1"]);
    assert_eq!((exit, stderr.as_str()), (0, ""));
    assert!(stdout.starts_with("== table1 — "), "{stdout}");
    // Help is not an error.
    let (exit, stdout, stderr) = repro(&["--help"]);
    assert_eq!((exit, stderr.as_str()), (0, ""));
    assert!(
        stdout.starts_with("usage: repro [EXPERIMENT]..."),
        "{stdout}"
    );
}

/// `--trials 0` is refused up front: a mean over no trials does not exist,
/// and `Summary::of(&[])` would say so with a panic and a backtrace.
#[test]
fn usage_errors_exit_2_and_print_nothing_to_stdout() {
    for (args, reason) in [
        (
            &["table2", "--trials", "0"][..],
            "repro: --trials must be at least 1\n",
        ),
        (&["table2", "--trials", "many"], ""),
        (&["table2", "--trials"], ""),
        (&["table5"], ""),
        (&["--jobs", "2"], ""),
    ] {
        let (exit, stdout, stderr) = repro(args);
        assert_eq!((exit, stdout.as_str()), (2, ""), "repro {args:?}: {stderr}");
        let usage = stderr.strip_prefix(reason).expect("the reason comes first");
        assert!(
            usage.starts_with("usage: repro [EXPERIMENT]..."),
            "{stderr}"
        );
    }
}
