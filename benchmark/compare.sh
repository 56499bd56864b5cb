#!/usr/bin/env bash
# Compares two result sets of this benchmark, A (the parent) against B (the
# change): benchmark/compare.sh A_DIR B_DIR, where each directory is the
# `--out` of one or more run.sh calls (it reads DIR/runs.jsonl).
#
# One row per workload and metric:
#   same        B's median is within the metric's bound of A's
#   better      B's median is better than A's by more than the bound
#   worse       B's median is worse than A's by more than the bound
#   unresolved  the runs of A or of B spread wider than the bound, so neither
#               of the above can be said (unless every run of B beats every
#               run of A, which reads `better`)
# `worse by` is the change of the median in the metric's bad direction, as a
# share of A's median. End-to-end metrics take their bound from
# BENCHMARK.json. The simulated metrics and exact counts repeat exactly for a
# seed and compare with bound 0.
# Exits 1 if any row is `worse` or `unresolved`.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
exec python3 - "$root/BENCHMARK.json" "$@" <<'PY'
import json
import statistics
import sys

EXACT = [
    "sim_mttr_s", "sim_availability", "paper_rel_err_max", "ops_failed_frac",
    "sim.events_total.table4", "sim.events_total.longrun", "sim.events_per_trial",
    "sim.trace_events_per_trial", "sim.trace_events.longrun", "sim.telemetry.events",
    "model.states_explored.full", "model.states_explored.reduced",
    "model.distinct.full", "model.distinct.reduced",
    "store.replayed_records", "store.discarded_bytes",
]


def load(directory):
    """{(workload, metric): [value per run]}; end-to-end values from untraced runs only."""
    runs = {}
    with open(f"{directory}/runs.jsonl") as lines:
        for line in lines:
            run = json.loads(line)
            for name, value in run["all_metrics"].items():
                if name in EXACT or (name in BOUNDS and run["trace"] == 0):
                    runs.setdefault((run["workload"], name), []).append(value)
    return runs


def spread(values):
    if len(values) < 2 or statistics.median(values) == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(a, b, bound, lower_is_better):
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1 if lower_is_better else -1
    change = sign * (med_b - med_a) / abs(med_a) if med_a else sign * (med_b - med_a)
    if max(spread(a), spread(b)) > bound:
        every_b_beats_a = max(sign * v for v in b) < min(sign * v for v in a)
        return ("better" if every_b_beats_a else "unresolved"), change
    if change > bound:
        return "worse", change
    return ("better" if change < -bound else "same"), change


if len(sys.argv) != 4:
    sys.exit("usage: compare.sh A_DIR B_DIR")
spec = json.load(open(sys.argv[1]))
BOUNDS = {m["name"]: m["bound"] for m in spec["end_to_end"]}
LOWER = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"] + spec["per_layer"]}
a_runs, b_runs = load(sys.argv[2]), load(sys.argv[3])
bad = 0
print(f"{'workload':<16} {'metric':<30} {'A median':>14} {'B median':>14} {'worse by':>8} {'bound':>6}  verdict")
for key in sorted(a_runs.keys() & b_runs.keys()):
    workload, metric = key
    a, b = a_runs[key], b_runs[key]
    if metric in EXACT and not any(a + b):
        continue  # a layer this workload never enters
    bound = BOUNDS.get(metric, 0.0)
    word, change = verdict(a, b, bound, LOWER[metric])
    bad += word in ("worse", "unresolved")
    print(f"{workload:<16} {metric:<30} {statistics.median(a):>14.6g} {statistics.median(b):>14.6g} "
          f"{change:>+8.2%} {bound:>6.2f}  {word}")
for key in sorted(a_runs.keys() ^ b_runs.keys()):
    print(f"{key[0]:<16} {key[1]:<30} only in {'A' if key in a_runs else 'B'}")
sys.exit(1 if bad else 0)
PY
