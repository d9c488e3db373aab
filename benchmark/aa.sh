#!/usr/bin/env bash
# A/A check: two interleaved sets of runs of every workload on ONE build.
#
# Prints, per workload and end-to-end metric, both sets' medians, each set's
# quartile distance as a share of its median, and a verdict against the
# bounds in BENCHMARK.json (plus the absolute floors of 5 ms for setup_s and
# 2 MB for peak_rss_mb):
#
#   PASS        set B's median is no worse than set A's by more than the
#               bound, and both spreads are inside it
#   UNRESOLVED  a spread is wider than the bound: the runs cannot tell
#   FAIL        set B is worse by more than the bound with spreads inside it
#
# It then asserts that every sim_* value, every [C] count and the
# sim_fingerprint are identical across all runs of a workload, and that runs
# with a second seed agree with each other too. Exit code 1 on any FAIL.
#
#   RUNS=5 SECONDS_PER_RUN=12 SEED=1 benchmark/aa.sh
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS=${RUNS:-5}
SECONDS_PER_RUN=${SECONDS_PER_RUN:-12}
SEED=${SEED:-1}
WORKLOADS="fig5_qd1 kv_mixed mq_reactor mq_reactor_nand crash_rebuild"

export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-benchmark/target}
cargo build --release --quiet --manifest-path benchmark/Cargo.toml
BIN=$CARGO_TARGET_DIR/release/bxperf
OUT=benchmark/out/aa
rm -rf "$OUT"
mkdir -p "$OUT"

run() { # set run workload seed seconds
    "$BIN" run --workload "$3" --seed "$4" --seconds "$5" >"$OUT/$1.$2.$3.txt"
}

for i in $(seq "$RUNS"); do
    for set in A B; do
        for w in $WORKLOADS; do
            echo "set $set run $i/$RUNS: $w" >&2
            run "$set" "$i" "$w" "$SEED" "$SECONDS_PER_RUN"
        done
    done
done
# Determinism does not need long runs: the second seed runs 2 s regions.
for i in 1 2; do
    for w in $WORKLOADS; do
        echo "second seed, run $i/2: $w" >&2
        run S "$i" "$w" $((SEED + 1)) 2
    done
done

python3 - "$OUT" "$RUNS" $WORKLOADS <<'EOF'
import json, statistics, sys

out, runs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
spec = json.load(open("BENCHMARK.json"))["end_to_end"]
floors = {"setup_s": 0.005, "peak_rss_mb": 2.0}

def parse(path):
    lines = open(path).read().splitlines()
    host = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    # Everything deterministic: the simulated section, the [C] counts, the
    # paper rows and the fingerprint.
    sim, keep = [], False
    for line in lines:
        if line.startswith("# "):
            keep = "simulated clock" in line or "per-layer counts" in line
        elif line.startswith(("paper ", "sim_fingerprint ")) or (keep and line.startswith("metric ")):
            sim.append(line)
    return host, sim

def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

failed = False
for w in workloads:
    sets = {s: [parse(f"{out}/{s}.{i}.{w}.txt") for i in range(1, runs + 1)] for s in "AB"}
    print(f"== {w}")
    for m in spec:
        name, bound = m["name"], m["bound"]
        a = [h[name] for h, _ in sets["A"]]
        b = [h[name] for h, _ in sets["B"]]
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) if m["better"] == "lower" else (ma - mb)
        allowed = max(bound * ma, floors.get(name, 0.0))
        wide = max(spread(a), spread(b)) * ma > allowed
        verdict = "UNRESOLVED" if wide else "PASS" if worse <= allowed else "FAIL"
        failed |= verdict == "FAIL"
        print(f"  {name:<20} A={ma:<12.6g} B={mb:<12.6g} iqr/median A={spread(a):.4f} "
              f"B={spread(b):.4f} worse_by={worse / ma:+.4f} bound={bound} {verdict}")
    sims = [s for runs_ in sets.values() for _, s in runs_]
    same = all(s == sims[0] for s in sims)
    second = [parse(f"{out}/S.{i}.{w}.txt")[1] for i in (1, 2)]
    same_second = second[0] == second[1]
    failed |= not (same and same_second)
    print(f"  sim_* / [C] / sim_fingerprint identical over {len(sims)} runs: {'PASS' if same else 'FAIL'}; "
          f"second seed self-agrees: {'PASS' if same_second else 'FAIL'}")
    if not same:
        for line_a, line_b in zip(sims[0], next(s for s in sims if s != sims[0])):
            if line_a != line_b:
                print(f"    differs: {line_a!r} vs {line_b!r}")
sys.exit(1 if failed else 0)
EOF
