package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"spio"
)

// Dataset D65: 32 ranks writing 16 files. 16 files keeps every mounted
// dataset far below the 64-slot open-file cache, so no measured path
// ever evicts a pinned handle (ROADMAP item 0).
var (
	simDims = spio.I3(4, 4, 2)
	factor  = spio.I3(2, 1, 1)
)

const (
	nRanks          = 32
	clustersPerRank = 4
	fullPerRank     = 16384 // x 32 ranks x 124 B = 65.0 MB
	tinyPerRank     = fullPerRank / 32
)

// dataset is one timestep of particles held in memory: the input of the
// writes and the brute-force oracle every answer is checked against.
type dataset struct {
	schema *spio.Schema
	grid   spio.Grid
	// all holds every particle; the particle with id g sits at index g.
	all *spio.Buffer
	// locals are the per-rank patches of all, as the simulation ranks
	// would hold them.
	locals []*spio.Buffer
}

func (d *dataset) particles() int64 { return int64(d.all.Len()) }
func (d *dataset) userBytes() int64 { return d.all.Bytes() }

// generate builds timestep 0 from the seed.
func generate(seed int64, perRank int) *dataset {
	d := &dataset{
		schema: spio.UintahSchema(),
		grid:   spio.NewGrid(spio.UnitBox(), simDims),
		locals: make([]*spio.Buffer, nRanks),
	}
	var wg sync.WaitGroup
	for half := 0; half < 2; half++ {
		wg.Add(1)
		go func(half int) {
			defer wg.Done()
			for r := half; r < nRanks; r += 2 {
				patch := d.grid.CellBox(spio.Unlinear(r, simDims))
				d.locals[r] = spio.Clustered(d.schema, patch, perRank, clustersPerRank, seed, r)
			}
		}(half)
	}
	wg.Wait()
	d.all = spio.NewBuffer(d.schema, nRanks*perRank)
	for _, l := range d.locals {
		d.all.AppendBuffer(l)
	}
	return d
}

// nearest returns the position of the particle closest to p.
func (d *dataset) nearest(p spio.Vec3) spio.Vec3 {
	best, bestDist := p, math.Inf(1)
	for i := 0; i < d.all.Len(); i++ {
		q := d.all.Position(i)
		if dist := p.Dist(q); dist < bestDist {
			best, bestDist = q, dist
		}
	}
	return best
}

// advected returns the next timestep: every particle moved, then dealt
// back to the rank whose patch now contains it (ids, and so indices in
// all, are unchanged).
func (d *dataset) advected() *dataset {
	n := &dataset{schema: d.schema, grid: d.grid, locals: make([]*spio.Buffer, nRanks)}
	n.all = spio.NewBuffer(d.schema, d.all.Len())
	n.all.AppendBuffer(d.all)
	spio.Advect(n.all, spio.UnitBox(), spio.V3(0.4, 0.25, -0.3), 0.15)
	for r := range n.locals {
		n.locals[r] = spio.NewBuffer(d.schema, d.all.Len()/nRanks)
	}
	for i := 0; i < n.all.Len(); i++ {
		n.locals[d.grid.LocateLinear(n.all.Position(i))].AppendFrom(n.all, i)
	}
	return n
}

// writeStep is one collective spio.Write of the dataset into dir.
type writeStep struct {
	wall    time.Duration
	results []spio.WriteResult
}

func (d *dataset) write(dir string, codec spio.CodecSpec, seed int64, tr *tracer, parent int) (writeStep, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return writeStep{}, err
	}
	cfg := spio.WriteConfig{
		Agg:      spio.AggConfig{Domain: spio.UnitBox(), SimDims: simDims, Factor: factor},
		Seed:     seed,
		Checksum: true,
		Codec:    codec,
	}
	ws := writeStep{results: make([]spio.WriteResult, nRanks)}
	t0 := time.Now()
	err := spio.Run(nRanks, func(c *spio.Comm) error {
		sp := tr.begin("core.Write", parent, c.Rank())
		res, err := spio.Write(c, dir, cfg, d.locals[c.Rank()])
		tr.end(sp)
		ws.results[c.Rank()] = res
		return err
	})
	ws.wall = time.Since(t0)
	if err != nil {
		return ws, fmt.Errorf("write %s: %w", dir, err)
	}
	return ws, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}
