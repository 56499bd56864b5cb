#!/usr/bin/env sh
# CI gate: build, tests, formatting, lints. Run from the repo root.
set -eux

cargo build --release --workspace

# Golden regression suite first, as its own step, so a drift is visible as
# a distinct failure with the diff in the log. This covers both the
# normalized recovery traces (tests/golden/<name>.txt) and the telemetry
# snapshot (tests/golden/tree3-kill-pbcom.telemetry.txt). On mismatch the
# differ writes the actual output next to each golden as
# tests/golden/<name>.actual.txt; print the diffs so CI uploads survive
# without artifact plumbing. Re-record after an intentional change with
# GOLDEN_RECORD=1.
if ! cargo test -q -p rr-harness --test golden; then
    set +x
    echo "==== golden drift (traces + telemetry snapshot) ===="
    for actual in tests/golden/*.actual.txt; do
        [ -e "$actual" ] || continue
        golden="${actual%.actual.txt}.txt"
        echo "---- diff $golden ----"
        diff -u "$golden" "$actual" || true
    done
    echo "==== end golden-trace drift (re-record with GOLDEN_RECORD=1) ===="
    exit 1
fi

# Static verification next: the full built-in audit (trees I-V x
# paper/hardened, models, suspicions, plans, algebra claims, golden
# scenarios) must be spotless — warnings included — and the lint fixtures
# must behave: the clean script passes, the deliberately broken one fails.
# On a surprise the JSON report is printed so CI logs carry the findings.
RR_LINT=target/release/rr-lint
if ! "$RR_LINT" --deny-warnings; then
    set +x
    echo "==== rr-lint: built-in audit is no longer clean ===="
    "$RR_LINT" --format json || true
    echo "==== end rr-lint audit findings ===="
    exit 1
fi
"$RR_LINT" --deny-warnings tests/lint-fixtures/clean.fault
if "$RR_LINT" tests/lint-fixtures/broken.fault; then
    set +x
    echo "==== rr-lint: broken fixture was NOT rejected ===="
    "$RR_LINT" --format json tests/lint-fixtures/broken.fault || true
    echo "==== end rr-lint fixture findings ===="
    exit 1
fi

# Model checking: exhaustively explore the recovery protocol's interleavings
# (solo + correlated-pair faults, trees I-V, both oracles) at the default
# bound, and verify every golden scenario's recorded telemetry stream with
# the happens-before verifier. A violation prints its minimized replayable
# counterexample in the golden-trace line format, banner-framed like the
# golden drift above. The seeded-violation fixtures must behave: the clean
# scenario passes, the deliberately broken one is rejected.
RR_MODEL=target/release/rr-model
if ! "$RR_MODEL" > model-audit.log 2>&1; then
    set +x
    echo "==== rr-model: protocol audit found a violation ===="
    cat model-audit.log
    echo "==== end rr-model counterexample ===="
    exit 1
fi
rm -f model-audit.log
"$RR_MODEL" tests/model-fixtures/clean.scenario
if "$RR_MODEL" tests/model-fixtures/broken.scenario > model-fixture.log 2>&1; then
    set +x
    echo "==== rr-model: broken fixture was NOT rejected ===="
    cat model-fixture.log
    echo "==== end rr-model fixture output ===="
    exit 1
fi
set +x
echo "==== rr-model: broken fixture rejected, minimized counterexample ===="
cat model-fixture.log
echo "==== end rr-model counterexample ===="
set -x
rm -f model-fixture.log

# Overload fixture pair: deferral under a working admission controller is
# clean (coverage survives, every deferred restart is eventually admitted),
# while a starved drain tick must be rejected by the starvation invariant
# with a minimized counterexample.
"$RR_MODEL" tests/model-fixtures/overload-clean.scenario
if "$RR_MODEL" tests/model-fixtures/overload-starve.scenario > model-overload.log 2>&1; then
    set +x
    echo "==== rr-model: starvation fixture was NOT rejected ===="
    cat model-overload.log
    echo "==== end rr-model fixture output ===="
    exit 1
fi
set +x
echo "==== rr-model: starvation fixture rejected, minimized counterexample ===="
cat model-overload.log
echo "==== end rr-model counterexample ===="
set -x
rm -f model-overload.log

# Rehydrate fixture pair: completing a restart by verified checkpoint replay
# must be indistinguishable from a cold boot to every safety invariant,
# while a rehydration from an unverified stale snapshot must trip the
# liveness invariant (the fault survives the restart, masked from the FD)
# with a minimized counterexample.
"$RR_MODEL" tests/model-fixtures/rehydrate-clean.scenario
if "$RR_MODEL" tests/model-fixtures/rehydrate-stale.scenario > model-rehydrate.log 2>&1; then
    set +x
    echo "==== rr-model: stale-rehydrate fixture was NOT rejected ===="
    cat model-rehydrate.log
    echo "==== end rr-model fixture output ===="
    exit 1
fi
set +x
echo "==== rr-model: stale-rehydrate fixture rejected, minimized counterexample ===="
cat model-rehydrate.log
echo "==== end rr-model counterexample ===="
set -x
rm -f model-rehydrate.log

# rr-flow: the static action-dependence audit (trees I-V, both oracles, all
# built-in flavours) must be clean, warnings included, and the differential
# POR fixture pair must behave. The clean pair explores both ways and the
# verdicts must agree (the log line also carries the distinct-state
# reduction BENCH_model.json pins); the por-unsound fixture carries a
# deliberately broken independence assumption that rr-flow's RRL953 lint
# rejects statically and the differential run must catch dynamically — full
# exploration finds the starved-deferral violation the reduced search
# misses.
RR_FLOW=target/release/rr-flow
"$RR_FLOW" --deny-warnings --quiet
if "$RR_FLOW" --quiet tests/model-fixtures/por-unsound.scenario > flow-unsound.log 2>&1; then
    set +x
    echo "==== rr-flow: unsound por-assume fixture was NOT rejected ===="
    cat flow-unsound.log
    echo "==== end rr-flow fixture findings ===="
    exit 1
fi
rm -f flow-unsound.log
"$RR_MODEL" --differential tests/model-fixtures/por-clean.scenario
if "$RR_MODEL" --differential tests/model-fixtures/por-unsound.scenario > model-por.log 2>&1; then
    set +x
    echo "==== rr-model: unsound reduction fixture was NOT caught by differential mode ===="
    cat model-por.log
    echo "==== end rr-model differential output ===="
    exit 1
fi
set +x
echo "==== rr-model: differential drift caught, full-side minimized counterexample ===="
cat model-por.log
echo "==== end rr-model counterexample ===="
set -x
rm -f model-por.log

# rr-abs: the interval certification of the three §4 transformation
# decisions must certify `always` over the ±20% drift box, warnings
# included, and the regenerated decision table must be byte-identical to
# the committed artifact (directed-rounding interval arithmetic is
# deterministic, so any diff means the calibration or the abstraction
# changed — re-record deliberately with
#   target/release/rr-abs --quiet --json tests/golden/abs-decisions.json
# after reviewing the new certificates). The fixture pair must behave: the
# sound table passes, the contradicted one is rejected via RRL971.
RR_ABS=target/release/rr-abs
"$RR_ABS" --deny-warnings --quiet --json target/abs-decisions.json
if ! diff -u tests/golden/abs-decisions.json target/abs-decisions.json; then
    set +x
    echo "==== rr-abs: decision-table drift against tests/golden/abs-decisions.json ===="
    echo "==== end rr-abs drift (re-record with rr-abs --json after review) ===="
    exit 1
fi
"$RR_ABS" --deny-warnings tests/abs-fixtures/clean.abs
if "$RR_ABS" tests/abs-fixtures/broken.abs > abs-fixture.log 2>&1; then
    set +x
    echo "==== rr-abs: contradicted fixture was NOT rejected ===="
    cat abs-fixture.log
    echo "==== end rr-abs fixture findings ===="
    exit 1
fi
rm -f abs-fixture.log

# Crash-safety fixtures: the committed journal images (clean and torn) must
# recover byte-identically forever — this is the store's on-disk format
# stability gate, so it runs as its own step.
cargo test -q -p rr-store --test crash_fixtures

# Checkpoint campaign golden: the cold-vs-rehydrate MTTR table (and the
# failure-rate crossover at the calibrated state size) is pinned under
# tests/golden/checkpoint-mttr.txt; both regimes must reproduce — a cell
# where rehydration wins and a cell where the plain restart wins. Drift
# prints the table diff like the trace goldens above.
if ! cargo test -q -p rr-harness --test checkpoint; then
    set +x
    echo "==== checkpoint MTTR golden drift ===="
    if [ -e tests/golden/checkpoint-mttr.actual.txt ]; then
        diff -u tests/golden/checkpoint-mttr.txt \
            tests/golden/checkpoint-mttr.actual.txt || true
    fi
    echo "==== end checkpoint drift (re-record with GOLDEN_RECORD=1) ===="
    exit 1
fi

cargo test -q --workspace

# Bench smoke: run the full micro suite (the same configuration that
# produced the committed BENCH_micro.json — bench order affects allocator
# warmth, so a filtered subset would not reproduce the baseline numbers),
# write a fresh report under target/, and fail on a >20% drop in any gated
# record (see rr_bench::harness::REGRESSION_TOLERANCE). Only the derived
# speedup ratios are gated (wheel vs heap, streamed codec vs its tree-path
# twin): absolute events/sec drifts 20-40% with machine load, while both
# sides of an in-run ratio drift together and cancel.
# Paths are absolute because cargo runs bench binaries from the package dir.
cargo bench -q -p rr-bench --bench micro -- micro/ \
    --json "$PWD/target/BENCH_micro.json" --baseline "$PWD/BENCH_micro.json"

# Model-checker reduction gate: the distinct-state reduction rr-flow's
# ample sets buy on every tree's pair-fault audit is fully deterministic
# (both sides of each gated ratio are state counts, not wall times), so any
# drift against the committed BENCH_model.json means an ample class changed
# behaviour. Regenerate deliberately with
#   cargo bench -p rr-bench --bench model -- model/ --json BENCH_model.json
cargo bench -q -p rr-bench --bench model -- model/ \
    --json "$PWD/target/BENCH_model.json" --baseline "$PWD/BENCH_model.json"

# The benchmark the pipeline runs after every PR (BENCHMARK.json, benchmark/)
# is a package of its own that calls only the crates' `pub` items, so a
# signature change there breaks it without breaking the workspace. The smoke
# run builds it, checks BENCHMARK.json against `rr-benchmark --describe`, and
# runs all five workloads plain and traced at 1/50 size with every output
# check on.
bash benchmark/run.sh --smoke

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
