#!/bin/sh
# Go lines per package, non-test and test, counted as written (blank and
# comment lines included): the one command behind the line counts a PR
# quotes. benchmark/, .bench_build/ and the analyzer fixtures under
# internal/analysis/testdata/ are not counted.
#
#	scripts/loc.sh          the tree
#	scripts/loc.sh <ref>    the tree, and its delta against <ref>
set -eu
cd "$(dirname "$0")/.."

# count <dir>: "<package> <non-test lines> <test lines>" per package.
count() {
	(cd "$1" && find . -name '*.go' -not -path './benchmark/*' -not -path './.bench_build/*' \
		-not -path './internal/analysis/testdata/*' -exec wc -l {} +) |
		awk '$2 != "total" { pkg = $2; sub(/\/[^\/]*$/, "", pkg)
			if ($2 ~ /_test\.go$/) test[pkg] += $1; else code[pkg] += $1; seen[pkg] = 1 }
			END { for (p in seen) print p, code[p] + 0, test[p] + 0 }' | sort
}

if [ $# -eq 0 ]; then
	count . | awk '{ printf "%-28s %7d %7d\n", $1, $2, $3; c += $2; t += $3 }
		END { printf "%-28s %7d %7d\n", "total (non-test, test)", c, t }'
	exit 0
fi
old=$(mktemp -d /tmp/spio-loc-XXXXXX)
trap 'rm -rf "$old"' EXIT
git archive "$1" | tar -x -C "$old"
{ count "$old" | sed 's/^/old /'; count . | sed 's/^/new /'; } |
	awk '{ if ($1 == "old") { oc[$2] = $3; ot[$2] = $4 } else { nc[$2] = $3; nt[$2] = $4 }; seen[$2] = 1 }
		END { for (p in seen) if (nc[p] != oc[p] || nt[p] != ot[p])
				printf "%-28s %7d %+6d %7d %+6d\n", p, nc[p], nc[p] - oc[p], nt[p], nt[p] - ot[p]
			for (p in seen) { c += nc[p]; dc += nc[p] - oc[p]; t += nt[p]; dt += nt[p] - ot[p] }
			printf "%-28s %7d %+6d %7d %+6d\n", "total (non-test, test)", c, dc, t, dt }' | sort
