package reader

import (
	"runtime"
	"runtime/debug"
	"testing"

	"spio/internal/core"
	"spio/internal/geom"
	"spio/internal/particle"
)

// allocPerRun returns the bytes allocated per call of fn in steady
// state: pools warmed by two calls, the collector off so a cycle cannot
// empty them mid-measurement.
func allocPerRun(fn func()) int64 {
	fn()
	fn()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc-before.TotalAlloc) / runs
}

// allocSlack is the constant part of every budget below: the per-query
// bookkeeping (selection vector, stats, collector, decode window slots),
// which grows with neither the file nor the answer.
const allocSlack = 1 << 20

// TestReadAllocationBudget holds the read path to its memory model: what
// a read allocates is a function of what it returns, not of what it had
// to look at. The files here are 4 MB each (32768 Uintah records); the
// whole-file materialise -> Decode -> AppendFrom path this replaced
// allocated more than 8 MB per file touched.
func TestReadAllocationBudget(t *testing.T) {
	const perRank = 32768
	for _, codec := range []string{"raw", "lossless"} {
		t.Run(codec, func(t *testing.T) {
			dir, _ := writeDataset(t, geom.I3(2, 1, 1), geom.I3(1, 1, 1), perRank, func(cfg *core.WriteConfig) {
				if codec == "lossless" {
					cfg.Codec = particle.LosslessSpec(particle.Uintah())
				}
			})
			ds, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			if err := ds.SetFileCache(8); err != nil {
				t.Fatal(err)
			}
			fileBytes := int64(perRank * ds.Meta().Schema.Stride())

			// A box straddling both files that keeps a few percent.
			q := geom.NewBox(geom.V3(0.4, 0.3, 0.3), geom.V3(0.6, 0.7, 0.7))
			var answer int64
			got := allocPerRun(func() {
				buf, _, err := ds.QueryBox(q, Options{})
				if err != nil {
					t.Fatal(err)
				}
				answer = buf.Bytes()
			})
			if answer == 0 || answer > fileBytes/4 {
				t.Fatalf("box keeps %d bytes of two %d-byte files; the test wants a small non-empty answer", answer, fileBytes)
			}
			t.Logf("QueryBox: %d bytes allocated for a %d-byte answer", got, answer)
			if budget := 3*answer + allocSlack; got > budget {
				t.Errorf("QueryBox allocates %d bytes for a %d-byte answer from two %d-byte files; budget %d", got, answer, fileBytes, budget)
			}

			// Projected: the answer shrinks to positions, and so must the cost.
			got = allocPerRun(func() {
				buf, _, err := ds.QueryBox(q, Options{Fields: []string{particle.PositionField}})
				if err != nil {
					t.Fatal(err)
				}
				answer = buf.Bytes()
			})
			t.Logf("position-only QueryBox: %d bytes allocated for a %d-byte answer", got, answer)
			if budget := 3*answer + allocSlack; got > budget {
				t.Errorf("position-only QueryBox allocates %d bytes for a %d-byte answer; budget %d", got, answer, budget)
			}

			// A progressive level is allocated once, at its size.
			var level int64
			got = allocPerRun(func() {
				p, err := ds.Progressive(ds.Meta().AllFiles(), 1)
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()
				for {
					buf, ok, err := p.NextLevel()
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
					level += buf.Bytes()
				}
			})
			level /= 7 // allocPerRun calls fn 2 + 5 times
			t.Logf("progressive: %d bytes allocated for %d bytes of levels", got, level)
			if budget := level*5/4 + allocSlack; level != 2*fileBytes || got > budget {
				t.Errorf("streaming %d bytes of levels allocates %d; budget %d", level, got, budget)
			}
		})
	}
}
