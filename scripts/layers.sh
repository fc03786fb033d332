#!/usr/bin/env bash
# The per-layer metrics of a parent commit and of the working tree, side
# by side: one traced benchmark run (--trace 1) per side, parent first,
# so that a change quotes its layer figures (query.knn_p50_ms,
# gateway.fanout_per_op, process.cpu_ms_per_op, ...) from one command.
# One run a side is a look, not a claim: a claimed move is scripts/pairs.sh.
#
#   scripts/layers.sh <parent-ref> <workload> [seed]
#   scripts/layers.sh HEAD~1 gateway3
#
# The parent is exported and built as scripts/pairs.sh does it, into
# .bench_build/pairs/parent-<sha>; the change is the working tree as it
# stands. Run length and each metric's direction are read from
# BENCHMARK.json. The two result lines stay in
# .bench_build/layers/<workload>-s<seed>/. Nothing under benchmark/ is
# touched.
set -euo pipefail
if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  echo "usage: scripts/layers.sh <parent-ref> <workload> [seed]" >&2
  exit 2
fi
ref="$1" workload="$2" seed="${3:-1}"
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
out="$root/.bench_build/layers/$workload-s$seed"
rm -rf "$out"
mkdir -p "$out"

echo "layers.sh: parent $sha vs working tree, $workload, seed $seed, one traced ${seconds}s run a side"
for side in parent change; do
  dir="$root"
  [ "$side" = parent ] && dir="$parent"
  (cd "$dir" && bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 1) \
    2>"$out/$side.log" | tail -n 1 >"$out/$side.json"
done

python3 - "$out" "$workload" <<'EOF'
import json, sys

out, workload = sys.argv[1], sys.argv[2]
bench = json.load(open("BENCHMARK.json"))
runs = {}
for side in ("parent", "change"):
    r = json.load(open(f"{out}/{side}.json"))
    if not r["correct"] or r["failed"]:
        sys.exit(f"layers.sh: the {side} run was not correct: {r}")
    runs[side] = r["metrics"]

print()
print(f"{workload}: per-layer metrics, parent -> change, one traced run each")
print(f"{'metric':<40} {'parent':>12} {'change':>12} {'ratio':>7}  better")
for m in bench["per_layer"]:
    name = m["name"]
    p, c = runs["parent"].get(name), runs["change"].get(name)
    if p is None or c is None:
        continue
    p, c = p["value"], c["value"]
    ratio = f"{c / p:.3f}" if p else "-"
    print(f"{name:<40} {p:>12.5g} {c:>12.5g} {ratio:>7}  {m['better']}")
EOF
