#!/usr/bin/env bash
# Noise protocol: two interleaved sets (A B A B ...) of every workload on
# the current tree, then one table row per workload and end-to-end
# metric with each set's median and quartiles, the spread within a set,
# the difference between the two medians, the bound from BENCHMARK.json
# and a verdict. Run i of both sets uses seed i, so the difference
# between the sets is the machine's and the spread within a set also
# holds what the seed changes.
#
#   bash benchmark/noise.sh [runs per set, default 5] > benchmark/NOISE.md
#
# Takes about runs x 4 minutes. Raw results, with every pass rate and
# primary-op latency (*.doc.json), stay in .bench_build/noise.
set -euo pipefail
runs="${1:-5}"
if [ "$runs" -lt 5 ]; then
  echo "noise.sh: at least 5 runs per set" >&2
  exit 2
fi
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
out=".bench_build/noise"
rm -rf "$out"
mkdir -p "$out"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
for i in $(seq 1 "$runs"); do
  for set in A B; do
    for w in $workloads; do
      echo "noise.sh: run $i of $runs, set $set, $w" >&2
      bash benchmark/run.sh --workload "$w" --seed "$i" --seconds "$seconds" --trace 0 \
        --out "$out/$set-$i-$w.doc.json" 2>"$out/$set-$i-$w.log" | tail -n 1 >"$out/$set-$i-$w.json"
    done
  done
done
python3 - "$out" "$runs" <<'EOF'
import glob, json, statistics, subprocess, sys, os

out, runs = sys.argv[1], int(sys.argv[2])
bench = json.load(open("BENCHMARK.json"))
timing_units = {"s", "ms", "us", "1/s", "MB/s"}

def values(set_, workload, metric):
    vals = []
    for i in range(1, runs + 1):
        r = json.load(open(f"{out}/{set_}-{i}-{workload}.json"))
        if not r["correct"] or r["failed"]:
            sys.exit(f"noise.sh: {set_}-{i}-{workload}: run was not correct")
        vals.append(r["metrics"][metric]["value"])
    return vals

def summary(vals):
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3, (q3 - q1) / med

stamp = ""
for line in open(sorted(glob.glob(f"{out}/A-1-*.log"))[0]):
    if line.startswith("stamp "):
        stamp = line[len("stamp "):].strip()
print("# Noise of the benchmark on one tree\n")
print(f"`bash benchmark/noise.sh {runs}`: two interleaved sets of {runs} runs per workload, "
      f"run i of each set with seed i, `--seconds {bench['run_seconds']}`.\n")
print(f"First run's stamp: `{stamp}`\n")
print("Spread is the distance between the quartiles over the median, the larger of the two sets'. "
      "Shift is the difference of the two sets' medians over the smaller one. "
      "PASS: spread and shift within the bound. WIDEN: not, but within 0.25. "
      "DEMOTE: beyond 0.25, or a timing metric whose medians shift by more than 0.10.\n")
print("| workload | metric | unit | A median [q1, q3] | B median [q1, q3] | spread | shift | bound | spread/bound | verdict |")
print("|---|---|---|---|---|---|---|---|---|---|")
worst = "PASS"
for w in bench["workloads"]:
    for m in bench["end_to_end"]:
        a = summary(values("A", w["name"], m["name"]))
        b = summary(values("B", w["name"], m["name"]))
        spread = max(a[3], b[3])
        shift = abs(a[0] - b[0]) / min(a[0], b[0])
        bound = m["bound"]
        # setup_s is held to the shift only, as the driver holds it.
        held = shift if m["name"] == "setup_s" else max(spread, shift)
        if held <= bound:
            verdict = "PASS"
        elif held <= 0.25 and not (m["unit"] in timing_units and shift > 0.10):
            verdict = "WIDEN"
        else:
            verdict = "DEMOTE"
        if verdict != "PASS":
            worst = verdict if worst != "DEMOTE" else worst
        fmt = lambda s: f"{s[0]:.4g} [{s[1]:.4g}, {s[2]:.4g}]"
        print(f"| {w['name']} | {m['name']} | {m['unit']} | {fmt(a)} | {fmt(b)} | {spread:.3f} | {shift:.3f} | {bound} | {spread / bound:.2f} | {verdict} |")
print(f"\nOverall: {worst}")
EOF
