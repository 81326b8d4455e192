#!/usr/bin/env bash
# Run the whole suite N times (default 5), each run with another seed, and
# report per (metric, workload) cell: median, quartiles, the quartile
# spread (Q3 - Q1) / median that the gate uses, and (max - min) / median.
# Exits 1 if an end-to-end cell's quartile spread exceeds its bound in
# BENCHMARK.json (setup_s is reported but, as in the gate, not checked).
#
#   benchmark/repeat.sh [N] [first-seed] [workload ...]
#
# Run from the repository root. Needs python3 for the statistics.
set -euo pipefail
cd "$(dirname "$0")/.."

runs="${1:-5}"
first_seed="${2:-2013}"
shift $(( $# < 2 ? $# : 2 ))

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

exec python3 - "$runs" "$first_seed" "$@" <<'PY'
import json, statistics, subprocess, sys

runs, first_seed, only = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
manifest = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in manifest["workloads"] if not only or w["name"] in only]
bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
cells = {}
for i in range(runs):
    for w in workloads:
        cmd = manifest["command"] + ["--workload", w, "--seed", str(first_seed + i),
                                     "--seconds", str(manifest["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"{w} seed {first_seed + i}: incorrect run\n{out}")
        for name, m in result["metrics"].items():
            cells.setdefault((name, w), []).append(m["value"])
        print(f"run {i + 1}/{runs} {w} done", file=sys.stderr)

over = []
print(f"{'metric':<18}{'workload':<12}{'median':>14}{'q1':>14}{'q3':>14}{'iqr/med':>9}{'range/med':>10}{'bound':>7}")
for (name, w), v in cells.items():
    med = statistics.median(v)
    q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
    spread, rng = (q3 - q1) / med, (max(v) - min(v)) / med
    flag = ""
    if name != "setup_s" and spread > bounds[name]:
        over.append((name, w))
        flag = "  OVER"
    print(f"{name:<18}{w:<12}{med:>14.4f}{q1:>14.4f}{q3:>14.4f}{spread:>9.3f}{rng:>10.3f}{bounds[name]:>7.2f}{flag}")
if over:
    sys.exit(f"quartile spread over its bound: {over}")
PY
