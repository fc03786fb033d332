#!/bin/sh
# Tier-1 CI gate for spio. Run from the repo root:
#
#	./scripts/ci.sh
#
# Every step must pass. The fault step re-runs the failure-semantics
# tests (error agreement, abort cleanup, torn-write fsck) by name so a
# regression there is called out as such. The race-detector step covers
# the packages with real concurrency (the goroutine-rank MPI
# substitute, the arrival-order exchange, the collective write pipeline,
# the fault-injection seam, the atomic format writers, the one cache
# under the file, block and dataset caches, the reader's shared file
# cache and its run-time resize, and the serving daemon — the server tier
# additionally at -count=2 to shake out order-dependent interleavings,
# and the answer-ownership tests, the block-lease and index-accounting tests, the
# one-wire-form and hello tests, the one-request-one-response tests, the aggregate-ownership tests, the
# partition-face write and query tests, the frame arena's, the size-classed pool's, the one compress bound's and the deflater's byte-determinism test, the cache's
# forced interleavings and the one codec's hostile-input, field-order and
# breaker-poll tests by name at -count=3); the fuzz step bursts seven
# surfaces, five decoders, the deflate encoder and the three select
# kernels; the examples smoke
# runs every program under examples/;
# the benchmark dry gate builds, vets and smoke-tests the nested
# benchmark module against the tree; the spiolint step runs the two
# analyzers (lockorder, racegate — both interprocedural) over
# the whole module, prints the suppressed findings with their reasons,
# the per-analyzer diagnostic counts and the wall times, fails on any
# unsuppressed diagnostic (exit 1; load errors exit 2), caps the number
# of reasoned //spio:allow suppressions, and holds the run — about 4 s —
# to a wall-clock budget of 15 times that, so a fixpoint gone
# superlinear is caught here rather than ossifying into CI.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
# internal/analysis/testdata holds analyzer fixtures, not buildable
# sources; it is excluded explicitly rather than relying on gofmt
# skipping it.
unformatted=$(find . -name '*.go' -not -path './internal/analysis/testdata/*' | xargs gofmt -l)
if [ -n "$unformatted" ]; then
	echo "gofmt: needs formatting:"
	echo "$unformatted"
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test at GOMAXPROCS=1,2,8 (mpi, agg, core, cache, reader, server, gateway) =="
# The serving path's failures have depended on core count before (the
# file-cache pin bug failed 20/20 on 2 cores and hid on others), so the
# cache and the three packages that share handles through it run uncached
# at a single P, at two, and oversubscribed. So does the collective
# write: the order payloads arrive in at an aggregator is the
# scheduler's, and that is what the exchange's placement by sender
# offset must be indifferent to; internal/core's
# TestWriteMatchesColumnReference holds every async cell's files
# byte-identical to a sync write's, so that identity is checked at every
# setting.
# internal/gateway holds the read path's one oracle (TestReadContract:
# local, spiod and a sharded mount x disk codec x cache budget against brute
# force), so the read contract runs at every setting too.
# Two invocations a setting: the serving packages' allocation-budget
# tests count pool misses, which eight Ps on two cores make likelier
# the more packages run beside them.
for procs in 1 2 8; do
	GOMAXPROCS=$procs go test -count=1 ./internal/mpi ./internal/agg ./internal/core
	GOMAXPROCS=$procs go test -count=1 ./internal/cache ./internal/reader ./internal/server ./internal/gateway
done

echo "== benchmark dry gate =="
# benchmark/ is a module of its own, so the steps above do not compile
# it: a signature change in internal/format or the facade that breaks
# the benchmark's build would otherwise surface only when the benchmark
# is next run. This vets it and runs its smoke test; the numbers it
# prints are not results.
(cd benchmark && go vet . && go test .)

echo "== fault-injection tests =="
go test ./internal/fault
go test -run 'TestFault|TestFsck|TestWrite(File|Meta)' ./internal/core ./internal/format

echo "== go test -race (mpi, agg, core, fault, particle, format, cache, reader, server, gateway, spiosim) =="
# internal/format carries the streaming-scan differential test (eight
# goroutines on one DataFile per codec x seam); particle and reader hold
# the kernels and the callers it is built from; internal/agg's exchange
# hands pooled wire slices and row segments from rank to rank;
# cmd/spiosim checkpoints asynchronously, and a buffer it touches before
# Wait shows only here.
go test -race ./internal/mpi ./internal/agg ./internal/core ./internal/fault ./internal/particle ./internal/format ./internal/cache ./internal/reader ./internal/server ./internal/gateway ./cmd/spiosim

echo "== answer ownership (-race -count=3) =="
# The rows an answer travels as live in pools: a result that aliased
# pooled memory, or a segment not released on some exit, is a bug only a
# particular interleaving shows. The tests that hold results across
# thousands of pool reuses, cut connections mid-frame and pin the wire
# bytes against the kept columnar reference run again, by name, three
# times — with the frame reader's exits: a refused answer skipped and the
# client still usable (a bad header breaks it), a row count beyond the
# frame refused before a segment is taken, a request with trailing bytes
# refused, a cut in the middle of a payload releasing what was read.
go test -race -count=3 -run 'TestResultsDoNotAliasPooledMemory|TestLosingReplicaReleasesRows|TestRowsReleasedOnEveryExit|TestOneWritePerFrame|TestWireFramesMatchReference|TestRefusedAnswerLeavesClientUsable|TestRowCountBeyondFrameTakesNoSegment|TestRequestWithTrailingBytesRefused|TestCutMidPayloadReleasesRows' ./internal/server ./internal/gateway
# A raw scan reads the block cache's own blocks under a lease, and the
# cache recycles a block once it is evicted and unleased: a view read
# after its release, or a block kept from the pool on some exit, shows
# only under some interleaving. The cell indexes kept beside the blocks
# are leased and counted the same way. The lease and accounting tests run
# again the same way.
go test -race -count=3 -run 'TestViewSurvivesEvictionWhilePinned|TestBlocksReturnToPoolOnEveryExit|TestViewAtHitAllocatesNothing|TestDeriveHitAllocatesNothing|TestIndexesAreNotDiskBytes|TestWarmMissAllocatesNoBlock|TestScanMatchesReference' ./internal/server ./internal/format
# One wire form and a hello that is a version check: an answer costs its
# rows on the socket through a spiod and through a gateway, a peer that
# never says hello is hung up on, and a hello of any other version or
# shape is refused with a message. The last two hung, or answered with the
# wrong error, while the hello was read whole and without a deadline.
go test -race -count=3 -run 'TestAnswerCostsItsRows|TestSilentPeerIsDropped|TestFrontBadHello' ./internal/server ./internal/gateway
# No served request outlives its response: idle stream cursors starve
# nobody, a cursor's connection carries other calls between two levels, a
# drain does not wait for a cursor, and a level lost with its replica is
# retried on the next. Each of these hung or went partial while a stream
# was a session; they run again the same way, on a plain and a sharded mount.
go test -race -count=3 -run 'TestIdleCursorsHoldNothing|TestQueriesBetweenLevels|TestShutdownWithAbandonedCursor|TestGatewayStreamSurvivesReplicaLoss' ./internal/gateway
# The interleavings that were the three old caches' bugs — evicted while
# pinned and re-acquired, eviction racing a parked load, a failing load
# with waiters, a resize to nothing under users — are forced by
# construction in the one cache's suite; they run again the same way.
go test -race -count=3 -run '^TestForced' ./internal/cache
# A write's aggregate is rows out of the same pools: the exchange's
# content-error branches (a rogue sender) and the released-on-every-exit
# assertions — abort after the exchange, after the data files, after the
# metadata, a retried write, a clean one — run again the same way.
go test -race -count=3 -run 'TestExchangeSurvivesRogueSender|TestRogueSenderAbortsAllRanks|TestFaultDataWriteAbortsAllRanks|TestFaultMetaWriteAbortsAllRanks|TestFaultTransientWriteRetries' ./internal/agg ./internal/core
# Partition faces: a particle on a face, edge or corner of its patch, or a
# whole rank on the domain's upper face, is written once on the aligned,
# imposed and adaptive grids (the imposed write failed on every rank, and
# so did an adaptive one whose rank sat on the upper face): the write
# contract's face-heavy and adaptive cells. The same particles are found by
# box, halo and KNN queries locally, through spiod and through a sharded
# mount (file selection missed them; TestReadContract holds them on every
# target, run once by the package-wide -race step above). A KNN beside a
# face between two shards asks both, and one inside a shard asks it alone,
# rogue particle included; a KNN from outside the domain keeps k records,
# not its box's (its allocation budget holds under -race, like every budget).
go test -race -count=3 -run '^TestWriteMatchesColumnReference$/.*/.*/.*/.*/.*/.*/^face-heavy$' ./internal/core
go test -race -count=3 -run '^TestWriteMatchesColumnReference$/.*/^adaptive$' ./internal/core
go test -race -count=3 -run 'TestQuickBlocksCoverParticles|TestKNNAsksOnlyShardsThatCanHoldIt|TestKNNAllocatesItsAnswer' ./internal/agg ./internal/gateway ./internal/reader
# A compressed file's frames live in one pooled arena from the compress to
# the end of the write: the bound the arena is sized by, a slot too short
# (the frame moves out, its neighbour is untouched), the arena back in its
# pool on every exit, and frames whose bytes depend on the column alone —
# whatever the pooled deflater coded before, on any number of workers. The
# arena, like every slice of the write step, comes from the size-classed
# pool, whose slices cross goroutines: returned by one, handed to another.
# Every block job of every call holds one of the compress slots, and no
# call runs on more goroutines than its worker count.
go test -race -count=3 -run 'TestFrameNeverExceedsBound|TestArenaOverflowAllocates|TestArenaReleasedOnEveryExit|TestDeflateBytesDependOnThePlaneAlone|TestPool|TestBatchCompressMatchesSerial' ./internal/particle ./internal/format
# One codec frames every structured byte (internal/binio). A metadata
# image whose file count its bytes do not bear out is refused for what the
# bytes cost (it killed the process while the count sized the table), and
# one naming a file outside the dataset directory, or a file twice, is
# refused with the entry's index; a schema outside the bounds is refused the same way in a file and in a
# frame; every codec pair round-trips a value whose fields are all
# distinct, so that two fields trading places fail a test; and the gateway's breakers are read by a stats poll while
# requests through a flapping shard open and close them (-race is the
# assertion: with the lock in breaker.open dropped nothing else fails).
go test -race -count=3 -run 'TestDecodeMetaHostileCount|TestDecodeMetaRefusesNamesOutsideTheDataset|TestDecodeSchemaHostile|TestFileEntryCodecRoundTrip|TestRequestRoundTrip|TestRespHeaderRoundTrip|TestStatsRoundTrip|TestResponsesRoundTrip|TestExtentCodecRoundTrip|TestCountCodecRoundTrip|TestResultCodecRoundTrip|TestStatsBesideFlappingShard' ./internal/format ./internal/server ./internal/agg ./internal/profile ./internal/gateway

echo "== go test -race -count=2 (server tier) =="
# The serving daemon is the most schedule-sensitive tier (admission
# control, cache eviction, drain); a second run without cached results
# gives the race detector a different interleaving to chew on.
go test -race -count=2 ./internal/server/...

echo "== codec fuzz smoke =="
# Short fuzz bursts over seven surfaces, five decoders, one encoder and the
# select kernels: the per-field block codec round-trip (hostile specs and
# record bytes), the box select (any bytes as positions, any box, any clip,
# any file bounds: the three select kernels — records, planes and index —
# and ContainsClosed must make one selection), the deflate decoder under it (differential against
# compress/flate: never
# laxer, same bytes, and every flate.Writer stream accepted), the deflate
# encoder beside it (any bytes in 1, 4 or 8 planes: compress/flate's reader
# and the inflater both give them back and stop on the payload's last byte,
# never more than the column stored; minimizing is capped, or one mutant
# of a 64 KiB seed eats the burst), the data
# file opener (whose corpus seeds compressed files, truncations,
# and bit flips) and the metadata decoder — which a spiod's clients and a
# gateway run on bytes a server sent — seeded with the image whose file
# count claims 2^27 rows — and the serving daemon's request decoder with
# what it executes: every request frame it accepts is run through a Front
# over a real mount and must get a response, on a connection that then
# answers the next request (seeded with the zero-axis density grid that
# once panicked the daemon; minimizing is capped, as some accepted
# requests cost a 32 MiB grid each). Regressions here are memory-safety or
# round-trip bugs, not flakes: the corpora are deterministic seeds plus
# 10s of mutation.
go test -run '^$' -fuzz '^FuzzCodecRoundTrip$' -fuzztime 10s ./internal/particle
go test -run '^$' -fuzz '^FuzzInflate$' -fuzztime 10s ./internal/particle
go test -run '^$' -fuzz '^FuzzDeflate$' -fuzztime 10s -fuzzminimizetime 1s ./internal/particle
go test -run '^$' -fuzz '^FuzzSelect$' -fuzztime 10s ./internal/particle
go test -run '^$' -fuzz '^FuzzOpenDataFile$' -fuzztime 10s ./internal/format
go test -run '^$' -fuzz '^FuzzReadMeta$' -fuzztime 10s ./internal/format
go test -run '^$' -fuzz '^FuzzServeRequest$' -fuzztime 10s -fuzzminimizetime 1s ./internal/server

echo "== spiod e2e smoke =="
# Serve a freshly written dataset from a real spiod process on a unix
# socket and prove a remote KNN answers byte-for-byte like the local
# reader, under 8 concurrent clients; fetch a heap profile from its
# metrics listener once; then drain it with SIGTERM.
smoke=$(mktemp -d /tmp/spio-smoke-XXXXXX)
trap 'rm -rf "$smoke"' EXIT
go build -o "$smoke/" ./cmd/spiod ./cmd/spiowrite ./cmd/spioread
# -codec lossless: the smoke then covers compressed files end to end —
# block cache holding compressed blocks, decode on egress.
"$smoke/spiowrite" -dir "$smoke/data" -dims 2x2x1 -particles 2000 -codec lossless >/dev/null
"$smoke/spiod" -mount sim="$smoke/data" -listen "unix:$smoke/s.sock" -metrics 127.0.0.1:0 2>"$smoke/spiod.log" &
spiod_pid=$!
for _ in $(seq 1 50); do
	[ -S "$smoke/s.sock" ] && break
	sleep 0.1
done
[ -S "$smoke/s.sock" ]
"$smoke/spioread" -dir "$smoke/data" -knn 0.5,0.5,0.5 -k 16 | grep distance >"$smoke/local.txt"
[ -s "$smoke/local.txt" ]
client_pids=""
for i in 1 2 3 4 5 6 7 8; do
	"$smoke/spioread" -remote "unix:$smoke/s.sock" -dataset sim -knn 0.5,0.5,0.5 -k 16 \
		| grep distance >"$smoke/remote$i.txt" &
	client_pids="$client_pids $!"
done
for p in $client_pids; do
	wait "$p"
done
for i in 1 2 3 4 5 6 7 8; do
	cmp "$smoke/local.txt" "$smoke/remote$i.txt"
done
"$smoke/spiod" stats -addr "unix:$smoke/s.sock" | grep -q '"requests"'
for _ in $(seq 1 50); do
	grep -q 'metrics on' "$smoke/spiod.log" && break
	sleep 0.1
done
metrics_addr=$(sed -n 's|.*metrics on http://\([^/]*\)/metrics.*|\1|p' "$smoke/spiod.log")
curl -fsS "http://$metrics_addr/debug/pprof/heap?debug=1" | grep -q '^heap profile:'
kill -TERM "$spiod_pid"
wait "$spiod_pid"
grep -q 'drained cleanly' "$smoke/spiod.log"
echo "spiod smoke: remote KNN byte-identical to local under 8 clients; heap profile served; clean drain"

echo "== sharded mount e2e smoke =="
# Split the same dataset into 3 shards, serve each from its own spiod,
# and put one more spiod in front that mounts the shards as one dataset
# beside a local mount of the whole: both mounts answer byte-for-byte
# like the local reader, the front's stats and /metrics carry the shard
# counters, and its metrics listener serves profiles. Then SIGKILL one
# shard: the sharded mount degrades to flagged partial results instead
# of failing, and the front still drains cleanly.
# A wider rank grid than the spiod smoke: 4x4x2 ranks aggregated 2x2x1
# gives 8 files, enough spatial structure to deal across 3 shards.
"$smoke/spiowrite" -dir "$smoke/gdata" -dims 4x4x2 -particles 500 -codec lossless >/dev/null
"$smoke/spioread" -dir "$smoke/gdata" -knn 0.5,0.5,0.5 -k 16 | grep distance >"$smoke/glocal.txt"
[ -s "$smoke/glocal.txt" ]
"$smoke/spiod" split -src "$smoke/gdata" -out "$smoke/sh0" -out "$smoke/sh1" -out "$smoke/sh2"
shard_pids=""
for i in 0 1 2; do
	"$smoke/spiod" -mount shard="$smoke/sh$i" -listen "unix:$smoke/sh$i.sock" &
	shard_pids="$shard_pids $!"
done
for i in 0 1 2; do
	for _ in $(seq 1 50); do
		[ -S "$smoke/sh$i.sock" ] && break
		sleep 0.1
	done
	[ -S "$smoke/sh$i.sock" ]
done
"$smoke/spiod" \
	-shard sim=shard="unix:$smoke/sh0.sock" \
	-shard sim=shard="unix:$smoke/sh1.sock" \
	-shard sim=shard="unix:$smoke/sh2.sock" \
	-mount local="$smoke/gdata" \
	-listen "unix:$smoke/front.sock" -metrics 127.0.0.1:0 2>"$smoke/front.log" &
front_pid=$!
for _ in $(seq 1 50); do
	[ -S "$smoke/front.sock" ] && break
	sleep 0.1
done
[ -S "$smoke/front.sock" ]
# KNN answers in deterministic nearest-first order on every path, so
# the sharded mount's merged answer, and the local mount's beside it,
# must compare byte-for-byte with the local reader's.
for ds in sim local; do
	"$smoke/spioread" -remote "unix:$smoke/front.sock" -dataset $ds -knn 0.5,0.5,0.5 -k 16 \
		| grep distance >"$smoke/front-$ds.txt"
	cmp "$smoke/glocal.txt" "$smoke/front-$ds.txt"
done
# Box-query particle counts agree too (order differs across shards, so
# compare the result line's kept-count rather than raw bytes).
local_n=$("$smoke/spioread" -dir "$smoke/gdata" -box 0.2,0.2,0.2,0.8,0.8,0.8 | sed -n 's/^result: *\([0-9]*\) particles kept.*/\1/p')
gate_n=$("$smoke/spioread" -remote "unix:$smoke/front.sock" -dataset sim -box 0.2,0.2,0.2,0.8,0.8,0.8 | sed -n 's/^result: *\([0-9]*\) particles kept.*/\1/p')
[ -n "$local_n" ] && [ "$local_n" = "$gate_n" ]
"$smoke/spiod" stats -addr "unix:$smoke/front.sock" | grep -q '"fanout"'
for _ in $(seq 1 50); do
	grep -q 'metrics on' "$smoke/front.log" && break
	sleep 0.1
done
metrics_addr=$(sed -n 's|.*metrics on http://\([^/]*\)/metrics.*|\1|p' "$smoke/front.log")
curl -fsS "http://$metrics_addr/metrics" >"$smoke/front-metrics.json"
grep -q '"fanout"' "$smoke/front-metrics.json"
curl -fsS "http://$metrics_addr/debug/pprof/heap?debug=1" >"$smoke/front-heap.txt"
grep -q '^heap profile:' "$smoke/front-heap.txt"
# Kill one shard the hard way: the same query must still answer, now
# carrying the partial-result marker, and the front must stay up.
kill -KILL $(echo "$shard_pids" | awk '{print $2}')
"$smoke/spioread" -remote "unix:$smoke/front.sock" -dataset sim -box 0.2,0.2,0.2,0.8,0.8,0.8 >"$smoke/partial.txt"
grep -q '\[partial\]' "$smoke/partial.txt"
kill -TERM "$front_pid"
wait "$front_pid"
grep -q 'drained cleanly' "$smoke/front.log"
for p in $shard_pids; do
	kill -TERM "$p" 2>/dev/null || true
done
echo "sharded mount smoke: sharded and local mounts byte-identical to local; shard counters and heap profile served; dead shard degraded to flagged partial results; clean drain"

echo "== examples smoke =="
# Every program under examples/ runs end to end, about a second in all;
# examples/analysis drives the facade's KNN, halo and density reads. Each
# runs with TMPDIR in the smoke directory, which goes at exit:
# examples/rendering leaves its frames behind for inspection.
for ex in examples/*/; do
	go build -o "$smoke/example" "./$ex"
	TMPDIR="$smoke" "$smoke/example" >"$smoke/example.txt" 2>&1 || { cat "$smoke/example.txt"; exit 1; }
done
echo "examples smoke: every example ran"

echo "== spiolint =="
lint_budget=60
# The tree's count, not headroom above it: a new suppression has to
# retire an old one or argue for raising this.
lint_max_suppressed=5
lint_out=$(mktemp /tmp/spio-lint-XXXXXX.txt)
lint_start=$(date +%s)
lint_status=0
go run ./cmd/spiolint -summary ./... >"$lint_out" 2>&1 || lint_status=$?
lint_elapsed=$(( $(date +%s) - lint_start ))
cat "$lint_out"
lint_suppressed=$(sed -n 's/.*suppressed=\([0-9]*\).*/\1/p' "$lint_out")
rm -f "$lint_out"
if [ "$lint_status" -ne 0 ]; then
	exit "$lint_status"
fi
echo "spiolint: ${lint_suppressed} reasoned suppressions (ceiling ${lint_max_suppressed})"
if [ "$lint_suppressed" -gt "$lint_max_suppressed" ]; then
	echo "spiolint: more than ${lint_max_suppressed} //spio:allow suppressions; fix the finding instead of adding one"
	exit 1
fi
echo "spiolint: two analyzers (lockorder racegate) took ${lint_elapsed}s (budget ${lint_budget}s)"
if [ "$lint_elapsed" -gt "$lint_budget" ]; then
	echo "spiolint: exceeded the ${lint_budget}s runtime budget"
	exit 1
fi

echo "ci: all checks passed"
