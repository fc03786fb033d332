#!/usr/bin/env bash
# Paired benchmark runs of a parent commit against the working tree: the
# wet gate of a change that claims, or risks, a move of a benchmark
# number (choosing-metrics: at least ten pairs, alternating which side
# runs first; a gain is claimed only when the change wins nine tenths of
# the pairs and the medians differ by more than the parent's own
# inter-quartile distance).
#
#   scripts/pairs.sh <parent-ref> <workload> <pairs> [seed]
#   scripts/pairs.sh HEAD~1 serve_hot 10 1
#
# The parent is exported (git archive) into .bench_build/pairs/parent-<sha>
# and built there by its own benchmark/run.sh; the change is the working
# tree as it stands, uncommitted edits included. Run length, metrics,
# directions and bounds are read from BENCHMARK.json. Prints one line per
# run, then one row per end-to-end metric. Every run's result line stays
# in .bench_build/pairs/<workload>-s<seed>/. Nothing under benchmark/ is
# touched.
set -euo pipefail
if [ $# -lt 3 ] || [ $# -gt 4 ]; then
  echo "usage: scripts/pairs.sh <parent-ref> <workload> <pairs> [seed]" >&2
  exit 2
fi
ref="$1" workload="$2" pairs="$3" seed="${4:-1}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
sha="$(git rev-parse --short "$ref^{commit}")"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
parent="$root/.bench_build/pairs/parent-$sha"
if [ ! -f "$parent/benchmark/run.sh" ]; then
  rm -rf "$parent"
  mkdir -p "$parent"
  git archive "$sha" | tar -x -C "$parent"
fi
out="$root/.bench_build/pairs/$workload-s$seed"
rm -rf "$out"
mkdir -p "$out"

# run <side> <dir> <pair>: one benchmark run; its result line is kept.
run() {
  (cd "$2" && bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) \
    2>"$out/$1-$3.log" | tail -n 1 >"$out/$1-$3.json"
  python3 - "$out/$1-$3.json" "$1" "$3" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
if not r["correct"] or r["failed"]:
    sys.exit(f"pairs.sh: {sys.argv[2]} run {sys.argv[3]} was not correct: {r}")
m = r["metrics"]
print(f"{sys.argv[2]:>6} {sys.argv[3]:>2} " + " ".join(f"{k}={m[k]['value']:.5g}" for k in sorted(m)), flush=True)
EOF
}

echo "pairs.sh: parent $sha vs working tree, $workload, seed $seed, $pairs pairs of ${seconds}s runs"
for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then
    run parent "$parent" "$i"
    run change "$root" "$i"
  else
    run change "$root" "$i"
    run parent "$parent" "$i"
  fi
done

python3 - "$out" "$pairs" "$workload" <<'EOF'
import json, statistics, sys

out, pairs, workload = sys.argv[1], int(sys.argv[2]), sys.argv[3]
bench = json.load(open("BENCHMARK.json"))

def values(side, metric):
    return [json.load(open(f"{out}/{side}-{i}.json"))["metrics"][metric]["value"] for i in range(1, pairs + 1)]

def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3

print()
print(f"{workload}: change/parent per end-to-end metric, {pairs} pairs")
print(f"{'metric':<28} {'parent med [q1, q3]':<30} {'change med [q1, q3]':<30} {'ratio':>6} {'wins':>6}  > IQR  bound  verdict")
for m in bench["end_to_end"]:
    name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
    p, c = values("parent", name), values("change", name)
    pq1, pmed, pq3 = quartiles(p)
    cq1, cmed, cq3 = quartiles(c)
    wins = sum((y < x) if lower else (y > x) for x, y in zip(p, c))
    losses = sum((y > x) if lower else (y < x) for x, y in zip(p, c))
    ratio = cmed / pmed if pmed else float("nan")
    better = cmed < pmed if lower else cmed > pmed
    apart = abs(cmed - pmed) > (pq3 - pq1)
    rel = abs(cmed - pmed) / pmed if pmed else 0.0
    if better and apart and wins >= 0.9 * pairs and pairs >= 10:
        verdict = "gain"
    elif better and apart and wins >= 0.9 * pairs:
        verdict = "better (fewer than 10 pairs: not a claim)"
    elif not better and rel > bound and losses == pairs:
        verdict = "REGRESSION: worse than the bound in every pair"
    elif not better and rel > bound:
        verdict = "worse than the bound"
    else:
        verdict = "inside the noise" if not apart else ("better, not by the rule" if better else "worse, inside the bound")
    fmt = lambda med, q1, q3: f"{med:.5g} [{q1:.5g}, {q3:.5g}]"
    print(f"{name:<28} {fmt(pmed, pq1, pq3):<30} {fmt(cmed, cq1, cq3):<30} {ratio:>6.3f} {wins:>3}/{pairs:<2}  {'yes' if apart else 'no':>5}  {bound:>5}  {verdict}")
EOF
