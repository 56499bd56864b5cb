#!/usr/bin/env sh
# CI gate, run from the repo root: a list of commands, the first failure stops
# it. Everything with a contract is a test, so `cargo test --workspace` alone
# guards the goldens (traces, telemetry snapshot, every golden scenario's
# episode stream with its vector clocks, checkpoint table, rr-abs decision
# table: crates/harness/tests/{golden,checkpoint}.rs), the rr-audit
# fixture and exit-code contract (crates/harness/tests/audit_cli.rs), the
# journal crash fixtures (crates/store/tests/crash_fixtures.rs), recovery
# from every crash point of a journal (crates/store/tests/crash_points.rs),
# that no library code takes a trace label apart
# (crates/harness/tests/label_parsing.rs; a `! grep` line here could never
# fail under `set -e`), that every `pub` library item has a user in
# another file (crates/harness/tests/pub_surface.rs), that only
# rr_harness::trial builds and warms a station in the harness
# (crates/harness/tests/trial_sites.rs), and that DESIGN.md §11 tabulates
# every rr-lint catalog code (crates/lint/tests/design_catalog.rs).
# A golden that moved fails with the changed lines in the panic message and
# leaves the actual output beside the recording as
# tests/golden/<stem>.actual.<ext>; re-record on purpose with GOLDEN_RECORD=1.
set -eux

cargo build --release --workspace

# Goldens first, so a change of behaviour reads as its own failure.
cargo test -q -p rr-harness --test golden
suite_start=$(date +%s)
cargo test -q --workspace
echo "suite wall: $(($(date +%s) - suite_start)) s"

# The four built-in audits on the release binary, warnings denied: the whole
# configuration surface (trees I-V x shipped configs, models, plans, algebra
# claims, golden fault scripts: the very scripts the golden suite plays),
# every interleaving of the built-in scenario matrix plus the happens-before
# check of each golden telemetry stream, the action-dependence tables, and
# the three section-4 profitability verdicts.
target/release/rr-audit lint --deny-warnings
model_start=$(date +%s%N)
target/release/rr-audit model
# Printed, not gated: a host-time bound would fail on a slow host, and
# benchmark/'s model_audit is where a change to it is judged.
echo "rr-audit model wall: $((($(date +%s%N) - model_start) / 1000000)) ms"
target/release/rr-audit flow --deny-warnings --quiet
target/release/rr-audit abs --deny-warnings --quiet

# EXPERIMENTS.md is generated, never edited: the whole suite at the paper's 100
# trials per cell reproduces the committed report byte for byte, on any number
# of cores (DESIGN.md 18).
target/release/repro all --trials 100 --report target/EXPERIMENTS.md >/dev/null
cmp target/EXPERIMENTS.md EXPERIMENTS.md

# benchmark/ is a package of its own calling only the crates' `pub` items, so
# a signature change breaks it without breaking the workspace: build it and run
# all five workloads at 1/50 size with every output check on.
bash benchmark/run.sh --smoke

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
# Intra-doc links are part of the surface: a field that moves breaks them
# without breaking the build.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
