#!/usr/bin/env bash
# The mutant ledger, executable: re-runs every seeded bug and says what
# caught it (DESIGN §16.1).
#
#   scripts/mutants.sh [-lint] [name…]
#   scripts/mutants.sh read1-files-by-partition write4-level-boundary-moved
#
# A mutant is testdata/mutants/<name>.patch: a unified diff behind a few
# header lines,
#
#   mutant:   what the bug is
#   ledger:   its row in DESIGN §16.1 or §8.4–§8.6
#   catchers: the tests (top-level names) and spiolint analyzers expected
#             to catch it; naming an analyzer runs spiolint on this mutant
#             even without -lint
#   race:     packages to run under -race instead of the plain run (optional)
#   expect:   escape — a mutant no check is expected to see: the
#             calibration, or a blind spot named in DESIGN (optional)
#
# For each mutant (all of them by default) the working tree's files —
# tracked and untracked, not ignored, as they stand, so uncommitted edits
# and deletions count — are copied into .bench_build/mutants/<name>; the
# patch is applied there; `go build ./...` must pass; then
# `go test -count=1 -failfast -timeout 180s -skip '^TestRepoClean$' ./...`
# runs, or `go test -race` of the header's packages under the same flags;
# the named catchers that -failfast kept from running are then run by
# name. TestRepoClean is skipped because it runs spiolint: the test
# verdict is the tests' alone, and only the spiolint column reports the
# analyzers. -lint also runs spiolint on every mutant. One row a mutant: whether it
# applies, the verdict (caught, caught-by-timeout, caught-by-lint or
# escaped), how many of the named catchers caught it (one that ran and
# passed is named as missed), the seconds, spiolint's analyzers, and the
# failing tests of the run. Logs stay in .bench_build/mutants/.
#
# Exits 1 if a patch does not apply, a patched tree does not build or
# spiolint cannot load it, a mutant escapes that its header does not
# expect to, or one expected to escape is caught (its header is then
# stale); otherwise 0. A change that moves mutated code re-bases the
# patch in the same change.
set -uo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
lint=0
if [ "${1:-}" = -lint ]; then
  lint=1
  shift
fi
if [ $# -eq 0 ]; then
  set -- $(ls testdata/mutants/*.patch | sed 's|.*/||; s|\.patch$||')
fi
out="$root/.bench_build/mutants"
mkdir -p "$out"

# header <patch> <key>: the value of one header line.
header() { sed -n "/^diff /q; s/^$2: *//p" "$1"; }

status=0 caught=0 escaped=0 start=$(date +%s)
printf '%-36s %-7s %-20s %-8s %5s  %-10s %s\n' mutant applies verdict catchers secs spiolint 'failing tests'
for name in "$@"; do
  patch="$root/testdata/mutants/$name.patch"
  dir="$out/$name"
  log="$out/$name.log"
  rm -f "$log".*
  t0=$(date +%s)
  rm -rf "$dir"
  mkdir -p "$dir"
  git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
    tar -c --null -T - -f - | tar -x -f - -C "$dir"
  # The copy sits inside this repository's work tree: stop git from
  # finding the repository, so the patch applies to the copy alone.
  if [ ! -f "$patch" ] || ! (cd "$dir" && GIT_CEILING_DIRECTORIES="$out" git apply "$patch") >"$log" 2>&1; then
    printf '%-36s %-7s %s\n' "$name" no "$(head -n 1 "$log")"
    status=1
    continue
  fi
  race=$(header "$patch" race)
  expect=$(header "$patch" expect)
  want=$(header "$patch" catchers)
  if ! (cd "$dir" && go build -buildvcs=false ./...) >>"$log" 2>&1; then
    printf '%-36s %-7s %s\n' "$name" yes 'does not build'
    status=1
    continue
  fi
  if [ -n "$race" ]; then
    (cd "$dir" && go test -race -v -count=1 -failfast -timeout 180s -skip '^TestRepoClean$' $race) >"$log.test" 2>&1
  else
    (cd "$dir" && go test -v -count=1 -failfast -timeout 180s -skip '^TestRepoClean$' ./...) >"$log.test" 2>&1
  fi
  if grep -q '\[\(build\|setup\) failed\]' "$log.test"; then
    printf '%-36s %-7s %s\n' "$name" yes 'does not build'
    status=1
    continue
  fi
  failed=$(sed -n 's/^--- FAIL: \([^ ]*\).*/\1/p' "$log.test" | sort -u)
  # A package that failed without a failing test names itself.
  failed+=" "$(awk '/^--- FAIL: /{n++} /^(ok|FAIL)[ \t]/ && NF > 1 {if ($1 == "FAIL" && !n) print $2; n = 0}' "$log.test")
  timedout=$(sed -n '/^panic: test timed out/,/^$/s/^\t\t\(Test[^ ]*\) .*/\1/p' "$log.test" | sort -u)
  lintrun=- found=
  if [ "$lint" = 1 ] || [[ " $want " == *" "[a-z]* ]]; then
    (cd "$dir" && go run ./cmd/spiolint ./...) >"$log.lint" 2>&1
    if [ $? -gt 1 ]; then
      printf '%-36s %-7s %s\n' "$name" yes 'spiolint does not load it'
      status=1
      continue
    fi
    found=$(sed -n 's/^[^ ]*:[0-9]*:[0-9]*: \([a-z]*\): .*/\1/p' "$log.lint" | sort -u | tr '\n' ' ')
    lintrun=${found:-clean}
  fi
  ran=$(sed -n 's/^=== RUN   \([^/]*\)$/\1/p' "$log.test" | sort -u)
  # -failfast stops at the first failing package: the named catchers that
  # did not run are run by name, to check the header.
  byname=
  rest=$(for c in $want; do [[ $c == Test* ]] && ! grep -qx "$c" <<<"$ran" && echo "$c"; done | paste -sd'|')
  if [ -n "$rest" ]; then
    (cd "$dir" && go test ${race:+-race} -v -count=1 -timeout 180s -run "^($rest)\$" ${race:-./...}) >"$log.catchers" 2>&1
    ran+=$'\n'$(sed -n 's/^=== RUN   \([^/]*\)$/\1/p' "$log.catchers" | sort -u)
    byname=$(sed -n 's/^--- FAIL: \([^ ]*\).*/\1/p; /^panic: test timed out/,/^$/s/^\t\t\(Test[^ ]*\) .*/\1/p' "$log.catchers")
  fi
  verdict=escaped
  if [ -n "${failed// /}" ]; then
    verdict=caught
    [ -n "$timedout" ] && [ -z "$(sed -n 's/^--- FAIL: \([^ ]*\).*/\1/p' "$log.test")" ] && verdict=caught-by-timeout
  elif [ -n "$found" ]; then
    verdict=caught-by-lint
  fi
  # A catcher hits when it fails, times out, or is running when a panic
  # ends its test binary; it misses when it ran and passed.
  passed=$(cat "$log.test" "$log.catchers" 2>/dev/null | sed -n 's/^--- PASS: \([^ ]*\).*/\1/p')
  crashed=$(cat "$log.test" "$log.catchers" 2>/dev/null | grep -c '^panic: ')
  hit=0 total=0 note= all=" $(echo $failed $timedout $byname $found) "
  for c in $want; do
    total=$((total + 1))
    if [[ $all == *" $c "* ]] || { [ "$crashed" != 0 ] && grep -qx "$c" <<<"$ran" && ! grep -qx "$c" <<<"$passed"; }; then
      hit=$((hit + 1))
    elif grep -qx "$c" <<<"$passed" || { [ "$lintrun" != - ] && [[ $c != Test* ]]; }; then
      note+=" missed:$c"
    fi
  done
  if [ "$verdict" = escaped ]; then
    escaped=$((escaped + 1))
    if [ "$expect" = escape ]; then
      verdict='escaped (expected)'
    else
      status=1
    fi
  else
    caught=$((caught + 1))
    if [ "$expect" = escape ]; then
      verdict="$verdict (stale)"
      status=1
    fi
  fi
  printf '%-36s %-7s %-20s %-8s %5d  %-10s %s\n' "$name" yes "$verdict" "$hit/$total$note" $(($(date +%s) - t0)) \
    "$lintrun" "$(echo $failed $timedout | tr ' ' '\n' | sort -u | xargs)"
  rm -rf "$dir"
done
echo "mutants.sh: $# mutants, $caught caught, $escaped escaped, $(($(date +%s) - start))s wall, exit $status"
exit $status
