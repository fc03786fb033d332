package spio_test

// Acceptance test: one scripted scenario exercising the whole public
// surface the way a simulation + analysis campaign would — asynchronous
// checkpointing of a moving workload, integrity checking, restart on a
// smaller job, and every flavour of read (box, batch-tile, LOD,
// progressive, projected, KNN, halo, density, rendering).

import (
	"math"
	"path/filepath"
	"testing"

	"spio"
)

func TestEndToEndCampaign(t *testing.T) {
	base := t.TempDir()
	domain := spio.UnitBox()
	simDims := spio.I3(4, 2, 1)
	nRanks := simDims.Volume()
	grid := spio.NewGrid(domain, simDims)
	cfg := spio.WriteConfig{
		Agg:         spio.AggConfig{Domain: domain, SimDims: simDims, Factor: spio.I3(2, 2, 1)},
		FieldRanges: true,
		Checksum:    true,
		Seed:        99,
	}

	// --- Simulation: 3 steps, async checkpoints, particle migration. ---
	const perRank = 1500
	err := spio.Run(nRanks, func(c *spio.Comm) error {
		patch := grid.CellBox(spio.Unlinear(c.Rank(), simDims))
		local := spio.Uniform(spio.UintahSchema(), patch, perRank, 5, c.Rank())
		var pending *spio.PendingWrite
		for step := 0; step < 3; step++ {
			snapshot := spio.NewBuffer(local.Schema(), local.Len())
			snapshot.AppendBuffer(local)
			if pending != nil {
				if _, err := pending.Wait(); err != nil {
					return err
				}
			}
			pending = spio.WriteAsync(c, spio.StepDir(base, step), cfg, snapshot)

			// Advance while the checkpoint drains.
			spio.Advect(local, domain, spio.V3(0.3, 0.15, -0.2), 0.2)
			outgoing := make([][]byte, c.Size())
			buckets := make([]*spio.Buffer, c.Size())
			for i := 0; i < local.Len(); i++ {
				owner := grid.Locate(local.Position(i)).Linear(simDims)
				if buckets[owner] == nil {
					buckets[owner] = spio.NewBuffer(local.Schema(), 0)
				}
				buckets[owner].AppendFrom(local, i)
			}
			for r, b := range buckets {
				if b != nil {
					outgoing[r] = b.Encode()
				}
			}
			merged := spio.NewBuffer(local.Schema(), local.Len())
			for _, data := range c.Alltoall(outgoing) {
				if err := merged.DecodeRecords(data); err != nil {
					return err
				}
			}
			local = merged
		}
		_, err := pending.Wait()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// --- Series discovery + integrity. ---
	steps, err := spio.Steps(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 3 {
		t.Fatalf("steps = %v", steps)
	}
	for _, s := range steps {
		ds, err := spio.OpenStep(base, s)
		if err != nil {
			t.Fatal(err)
		}
		if problems := ds.Fsck(spio.FsckOptions{Deep: true, Checksums: true}); len(problems) > 0 {
			t.Fatalf("step %d corrupt: %v", s, problems)
		}
		if ds.Meta().Total != int64(nRanks*perRank) {
			t.Fatalf("step %d total = %d", s, ds.Meta().Total)
		}
	}

	// --- Restart the last step on half the ranks; totals conserved. ---
	restartDims := spio.I3(2, 2, 1)
	counts := make([]int, restartDims.Volume())
	err = spio.Run(restartDims.Volume(), func(c *spio.Comm) error {
		buf, err := spio.Restart(c, spio.StepDir(base, 2), domain, restartDims)
		if err != nil {
			return err
		}
		counts[c.Rank()] = buf.Len()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != nRanks*perRank {
		t.Fatalf("restart recovered %d of %d", total, nRanks*perRank)
	}

	// --- Analysis on step 0 with a warm file cache. ---
	ds, err := spio.OpenStep(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	ds.SetFileCache(8)
	defer ds.Close()

	// Tile queries cover the dataset exactly once.
	tiles := spio.NewGrid(domain, spio.I3(2, 2, 1))
	sum := 0
	for i := 0; i < 4; i++ {
		out, _, err := ds.QueryBox(tiles.CellBox(spio.Unlinear(i, spio.I3(2, 2, 1))), spio.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sum += out.Len()
	}
	if int64(sum) != ds.Meta().Total {
		t.Fatalf("tiles hold %d of %d", sum, ds.Meta().Total)
	}

	// Progressive streaming equals batch LOD reads.
	p, err := ds.Progressive(spio.AssignFiles(ds.Meta(), 1, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	streamed := 0
	for {
		inc, ok, err := p.NextLevel()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		streamed += inc.Len()
	}
	if int64(streamed) != ds.Meta().Total {
		t.Fatalf("streamed %d", streamed)
	}

	// Projected field read agrees with the full read.
	proj, _, err := ds.ReadAll(spio.QueryOptions{Fields: []string{"density"}})
	if err != nil {
		t.Fatal(err)
	}
	if int64(proj.Len()) != ds.Meta().Total || proj.Schema().Stride() != 32 {
		t.Fatalf("projection: %d particles, stride %d", proj.Len(), proj.Schema().Stride())
	}

	// KNN against brute force.
	all, _, err := ds.ReadAll(spio.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	probe := spio.V3(0.4, 0.4, 0.6)
	_, dists, _, err := spio.KNN(ds, probe, 3)
	if err != nil {
		t.Fatal(err)
	}
	best := math.Inf(1)
	for i := 0; i < all.Len(); i++ {
		if d := probe.Dist(all.Position(i)); d < best {
			best = d
		}
	}
	if math.Abs(best-dists[0]) > 1e-12 {
		t.Fatalf("KNN nearest %v, brute force %v", dists[0], best)
	}

	// Halo, density, rendering.
	own, ghost, _, err := spio.Halo(ds, tiles.CellBox(spio.I3(0, 0, 0)), 0.04, spio.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if own.Len() == 0 || ghost.Len() == 0 {
		t.Fatalf("halo: %d own, %d ghost", own.Len(), ghost.Len())
	}
	counts2, frac, _, err := spio.DensityGrid(ds, spio.I3(2, 2, 1), 0, 1)
	if err != nil || frac != 1 {
		t.Fatalf("density: %v frac %v", err, frac)
	}
	var dsum float64
	for _, c := range counts2 {
		dsum += c
	}
	if int64(dsum) != ds.Meta().Total {
		t.Fatalf("density sums to %v", dsum)
	}
	img := spio.Render(all, domain, spio.RenderOptions{Width: 64, Height: 64})
	if err := img.WritePGM(filepath.Join(base, "frame.pgm")); err != nil {
		t.Fatal(err)
	}
	lowLOD, _, err := ds.ReadAll(spio.QueryOptions{Levels: 5})
	if err != nil {
		t.Fatal(err)
	}
	opts := spio.RenderOptions{Width: 64, Height: 64,
		SampleFraction: float64(lowLOD.Len()) / float64(all.Len())}
	psnr, err := spio.ImagePSNR(img, spio.Render(lowLOD, domain, opts))
	if err != nil {
		t.Fatal(err)
	}
	if psnr < 5 {
		t.Errorf("low-LOD render PSNR %.1f dB implausibly bad", psnr)
	}

	// Cache effectiveness across all those reads.
	cs := ds.CacheStats()
	if cs.Hits == 0 || cs.Misses == 0 || cs.Misses > int64(len(ds.Meta().Files)) {
		t.Errorf("cache stats: %d hits, %d misses", cs.Hits, cs.Misses)
	}
	if cs.BytesFromCache == 0 {
		t.Errorf("cache stats: %d hits but no bytes served from cache", cs.Hits)
	}
}
