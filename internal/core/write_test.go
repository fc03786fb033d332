package core

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"spio/internal/agg"
	"spio/internal/geom"
	"spio/internal/mpi"
	"spio/internal/particle"
)

// writeUniform writes a uniform dataset and returns its directory.
func writeUniform(t *testing.T, simDims, factor geom.Idx3, perRank int, cfgMut func(*WriteConfig)) string {
	t.Helper()
	dir := t.TempDir()
	cfg := WriteConfig{
		Agg:  agg.Config{Domain: geom.UnitBox(), SimDims: simDims, Factor: factor},
		Seed: 11,
	}
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	nRanks := simDims.Volume()
	grid := geom.NewGrid(cfg.Agg.Domain, simDims)
	err := mpi.Run(nRanks, func(c *mpi.Comm) error {
		local := particle.Uniform(particle.Uintah(), grid.CellBox(geom.Unlinear(c.Rank(), simDims)), perRank, 5, c.Rank())
		_, err := Write(c, dir, cfg, local)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestWriteTimingsPopulated(t *testing.T) {
	dir := t.TempDir()
	simDims := geom.I3(2, 2, 1)
	cfg := WriteConfig{Agg: agg.Config{Domain: geom.UnitBox(), SimDims: simDims, Factor: geom.I3(2, 2, 1)}}
	grid := geom.NewGrid(geom.UnitBox(), simDims)
	err := mpi.Run(4, func(c *mpi.Comm) error {
		local := particle.Uniform(particle.Uintah(), grid.CellBox(geom.Unlinear(c.Rank(), simDims)), 100, 1, c.Rank())
		res, err := Write(c, dir, cfg, local)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if res.Partition != 0 || res.FileParticles != 400 {
				return fmt.Errorf("rank 0 result %+v", res)
			}
			if res.Timing.FileIO <= 0 || res.Timing.Reorder < 0 {
				return fmt.Errorf("rank 0 timing %+v", res.Timing)
			}
		} else if res.Partition != -1 {
			return fmt.Errorf("rank %d claims partition %d", c.Rank(), res.Partition)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWritePhasesAccountForTheCall: on every rank of a 32-rank compressed
// write the phases of Timing add up to the time the rank spent in Write,
// within 5 %. Before the agreement rounds were charged to Wait, 40 % of a
// step — the ranks queueing for two cores at the three rounds — belonged
// to no phase. Encode is a part of FileIO, not a phase beside it. The
// second configuration fits an adaptive grid to the validated input and
// stores field ranges, so Setup (the collective validation, which every
// write runs, and the fit) and the range scan (MetaIO) are a real share of
// the call. The box is shared and a rank
// descheduled between two stamps loses that time to no phase, so the
// bound must hold on one of three writes, not on each.
func TestWritePhasesAccountForTheCall(t *testing.T) {
	simDims := geom.I3(4, 4, 2)
	base := WriteConfig{
		Agg:   agg.Config{Domain: geom.UnitBox(), SimDims: simDims, Factor: geom.I3(2, 1, 1)},
		Codec: particle.LosslessSpec(particle.Uintah()),
	}
	full := base
	full.Adaptive, full.FieldRanges = true, true
	grid := geom.NewGrid(geom.UnitBox(), simDims)
	locals := make([]*particle.Buffer, simDims.Volume())
	for r := range locals {
		locals[r] = particle.Uniform(particle.Uintah(), grid.CellBox(geom.Unlinear(r, simDims)), 4096, 1, r)
	}
	for name, cfg := range map[string]WriteConfig{"aligned": base, "adaptive+validate+ranges": full} {
		t.Run(name, func(t *testing.T) {
			var worst string
			for attempt := 0; attempt < 3; attempt++ {
				results := make([]WriteResult, len(locals))
				walls := make([]time.Duration, len(locals))
				dir := t.TempDir()
				err := mpi.Run(len(locals), func(c *mpi.Comm) error {
					start := time.Now()
					res, err := Write(c, dir, cfg, locals[c.Rank()])
					walls[c.Rank()], results[c.Rank()] = time.Since(start), res
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				worst = ""
				for r, res := range results {
					tm := res.Timing
					if res.Partition >= 0 && (tm.Encode <= 0 || tm.Encode > tm.FileIO) {
						t.Fatalf("rank %d: encode %v of file I/O %v", r, tm.Encode, tm.FileIO)
					}
					if tm.Wait <= 0 || tm.Setup <= 0 || tm.MetaIO <= 0 {
						t.Fatalf("rank %d: a phase every rank goes through took no time: %+v", r, tm)
					}
					if gap := walls[r] - tm.Total(); gap < 0 || gap > walls[r]/20 {
						worst = fmt.Sprintf("rank %d: phases add up to %v of %v in Write: %+v", r, tm.Total(), walls[r], tm)
					}
				}
				if worst == "" {
					return
				}
			}
			t.Error(worst)
		})
	}
}

func TestWriteRejectsBadConfig(t *testing.T) {
	err := mpi.Run(4, func(c *mpi.Comm) error {
		cfg := WriteConfig{Agg: agg.Config{Domain: geom.UnitBox(), SimDims: geom.I3(3, 1, 1), Factor: geom.I3(1, 1, 1)}}
		_, err := Write(c, t.TempDir(), cfg, particle.NewBuffer(particle.Uintah(), 0))
		if err == nil {
			return fmt.Errorf("bad config accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWarmWriteAllocatesNothingPerParticle: a warm lossless write through
// four aggregators of unequal size allocates nothing sized by its
// particles: its images, frames, wire payloads, LOD orders, codec states
// and generators come back from pools that any P sees. On 8 Ps, collector
// off, each of ten warm writes of 16 000–44 000 particles a rank must
// stay under the budget, so one missed payload, image or arena (2.4 MB
// and up here) or one codec state growing fails the test. The budget is
// a write's goroutines and messages (about 60 KB). And the least of ten
// writes at a quarter of the
// particles is within 128 KiB of the least at the full count, so a write
// that allocates one byte a particle (180 000 more here) fails too.
func TestWarmWriteAllocatesNothingPerParticle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	simDims := geom.I3(2, 2, 2)
	cfg := WriteConfig{
		Agg:   agg.Config{Domain: geom.UnitBox(), SimDims: simDims, Factor: geom.I3(1, 1, 2)},
		Codec: particle.LosslessSpec(particle.Uintah()),
	}
	grid := geom.NewGrid(cfg.Agg.Domain, simDims)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// warm returns the least and the largest allocation of ten warm writes.
	warm := func(perRank int) (least, most uint64) {
		locals := make([]*particle.Buffer, simDims.Volume())
		for r := range locals {
			locals[r] = particle.Uniform(particle.Uintah(), grid.CellBox(geom.Unlinear(r, simDims)), perRank*(4+r)/4, 5, r)
		}
		dir := t.TempDir()
		write := func() {
			err := mpi.Run(len(locals), func(c *mpi.Comm) error {
				_, err := Write(c, dir, cfg, locals[c.Rank()])
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		// A process's first writes of a size allocate what it keeps: of
		// each class as many slices as a write has held at once, which the
		// scheduler decides, so the warm-up is ten writes.
		for i := 0; i < 10; i++ {
			write()
		}
		least = math.MaxUint64
		for i := 0; i < 10; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			write()
			runtime.ReadMemStats(&after)
			least, most = min(least, after.TotalAlloc-before.TotalAlloc), max(most, after.TotalAlloc-before.TotalAlloc)
		}
		return least, most
	}
	const n, budget, slope = 4000, 256 << 10, 128 << 10
	small, _ := warm(n)
	large, most := warm(4 * n)
	t.Logf("a warm write allocates %d KB at %d particles a rank, %d KB at %d; the largest of ten %d KB", small>>10, n, large>>10, 4*n, most>>10)
	if most > budget {
		t.Errorf("a warm write allocates %d KB, over the budget of %d KB", most>>10, budget>>10)
	}
	if large > small+slope {
		t.Errorf("a warm write allocates %d KB more at %d particles a rank than at %d", (large-small)>>10, 4*n, n)
	}
}
