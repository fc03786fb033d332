package agg

import (
	"math/rand"
	"slices"
	"testing"

	"spio/internal/geom"
	"spio/internal/mpi"
	"spio/internal/particle"
)

// Randomized layout invariants over many (dims, factor) combinations.

func TestQuickLayoutInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	dimChoices := []int{1, 2, 3, 4, 6, 8}
	for trial := 0; trial < 60; trial++ {
		dims := geom.I3(
			dimChoices[r.Intn(len(dimChoices))],
			dimChoices[r.Intn(len(dimChoices))],
			dimChoices[r.Intn(len(dimChoices))],
		)
		factor := geom.I3(divisorOf(r, dims.X), divisorOf(r, dims.Y), divisorOf(r, dims.Z))
		nRanks := dims.Volume()
		cfg := unitCfg(dims, factor)
		l, err := NewLayout(cfg, nRanks)
		if err != nil {
			t.Fatalf("trial %d (%v/%v): %v", trial, dims, factor, err)
		}

		// Invariant 1: partitions × group size = ranks.
		if l.NumPartitions()*cfg.GroupSize() != nRanks {
			t.Fatalf("trial %d: %d parts × %d group != %d ranks", trial, l.NumPartitions(), cfg.GroupSize(), nRanks)
		}
		// Invariant 2: every rank belongs to exactly one partition and
		// its patch is inside that partition's box.
		seen := make(map[int]int)
		for rank := 0; rank < nRanks; rank++ {
			p := cellOf(t, l, rank)
			seen[p]++
			if !l.PartitionBox(p).ContainsBox(patchOf(cfg, rank)) {
				t.Fatalf("trial %d: rank %d patch escapes its partition", trial, rank)
			}
		}
		for p, count := range seen {
			if count != cfg.GroupSize() {
				t.Fatalf("trial %d: partition %d has %d members, want %d", trial, p, count, cfg.GroupSize())
			}
		}
		// Invariant 3: aggregators are distinct, in range, and every
		// partition's senders are the ranks whose block it is.
		aggs := make(map[int]bool)
		for p := 0; p < l.NumPartitions(); p++ {
			a := l.Aggregator(p)
			if a < 0 || a >= nRanks || aggs[a] {
				t.Fatalf("trial %d: bad aggregator %d for partition %d", trial, a, p)
			}
			aggs[a] = true
			for _, rank := range l.Senders(p) {
				if cellOf(t, l, rank) != p {
					t.Fatalf("trial %d: sender set inconsistent", trial)
				}
			}
		}
		// Invariant 4: partition boxes tile the domain.
		var vol float64
		for p := 0; p < l.NumPartitions(); p++ {
			vol += l.PartitionBox(p).Volume()
		}
		if d := vol - 1.0; d > 1e-9 || d < -1e-9 {
			t.Fatalf("trial %d: partitions cover volume %v", trial, vol)
		}
	}
}

func divisorOf(r *rand.Rand, n int) int {
	var divs []int
	for d := 1; d <= n; d++ {
		if n%d == 0 {
			divs = append(divs, d)
		}
	}
	return divs[r.Intn(len(divs))]
}

// TestQuickBlocksCoverParticles holds the one block rule over the three
// constructors: every particle inside the box a rank's block was taken
// from (its patch, or for an adaptive grid its bounds) is binned, as
// Exchange bins it, into a partition whose senders include the rank, and
// the clamp into the block never moves it. Senders are in rank order, and
// an aligned block is the one partition holding the rank's patch.
func TestQuickBlocksCoverParticles(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		simDims := geom.I3(1+r.Intn(5), 1+r.Intn(4), 1+r.Intn(3))
		n := simDims.Volume()
		cfg := unitCfg(simDims, geom.I3(divisorOf(r, simDims.X), divisorOf(r, simDims.Y), divisorOf(r, simDims.Z)))
		parts := geom.I3(1+r.Intn(3), 1+r.Intn(3), 1)
		if parts.Volume() > n {
			parts = geom.I3(1, 1, 1)
		}
		// Each rank's particles sit inside its closed patch, on its corners
		// among them; one rank in three of a multi-rank world has none.
		patches := make([]geom.Box, n)
		locals := make([]*particle.Buffer, n)
		for rank := range locals {
			patches[rank] = patchOf(cfg, rank)
			locals[rank] = particle.NewBuffer(particle.Uintah(), 0)
			if n > 1 && r.Intn(3) == 0 {
				continue
			}
			locals[rank] = particle.Uniform(particle.Uintah(), patches[rank], 20, int64(trial), rank)
			lo, hi := patches[rank].Lo, patches[rank].Hi
			for c := 0; c < 8; c++ {
				corner := lo
				if c&1 != 0 {
					corner.X = hi.X
				}
				if c&2 != 0 {
					corner.Y = hi.Y
				}
				if c&4 != 0 {
					corner.Z = hi.Z
				}
				locals[rank].SetPosition(c, corner)
			}
		}
		if locals[0].Len() == 0 {
			locals[0] = particle.Uniform(particle.Uintah(), patches[0], 1, int64(trial), 0)
		}

		aligned, err := NewLayout(cfg, n)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		imposed, err := NewImposedLayout(cfg.Domain, parts, patches)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var adaptive *Layout
		err = mpi.Run(n, func(c *mpi.Comm) error {
			l, err := BuildAdaptive(c, cfg.Domain, parts, locals[c.Rank()])
			if c.Rank() == 0 {
				adaptive = l
			}
			return err
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		bounds := make([]geom.Box, n)
		for rank, local := range locals {
			bounds[rank] = local.Bounds()
		}

		for rank, patch := range patches {
			if p := cellOf(t, aligned, rank); !aligned.PartitionBox(p).ContainsBox(patch) {
				t.Fatalf("trial %d: rank %d's aligned block %d does not hold its patch", trial, rank, p)
			}
		}
		for _, tc := range []struct {
			name  string
			l     *Layout
			boxes []geom.Box
		}{{"aligned", aligned, patches}, {"imposed", imposed, patches}, {"adaptive", adaptive, bounds}} {
			l := tc.l
			for p := 0; p < l.NumPartitions(); p++ {
				if s := l.Senders(p); !slices.IsSorted(s) || len(slices.Compact(slices.Clone(s))) != len(s) {
					t.Fatalf("trial %d %s: senders of %d not in rank order: %v", trial, tc.name, p, s)
				}
			}
			for rank, local := range locals {
				b := l.blocks[rank]
				// A one-cell block sends its whole buffer unscanned, as Exchange
				// does; a wider one is split.
				var bins [][]int
				if b.lo == b.hi {
					bins = make([][]int, l.NumPartitions())
					for i := 0; i < local.Len(); i++ {
						bins[b.lo.Linear(l.Grid.Dims)] = append(bins[b.lo.Linear(l.Grid.Dims)], i)
					}
				} else {
					bins = SplitByPartition(local, l.Grid, b.lo, b.hi)
				}
				for p, idx := range bins {
					if len(idx) > 0 && !slices.Contains(l.Senders(p), rank) {
						t.Fatalf("trial %d %s: rank %d bins %d particles into %d but is not a sender", trial, tc.name, rank, len(idx), p)
					}
					for _, i := range idx {
						pos := local.Position(i)
						if b.lo != b.hi && tc.boxes[rank].ContainsClosed(pos) && l.Grid.LocateLinear(pos) != p {
							t.Fatalf("trial %d %s: rank %d's particle at %v clamped from %d to %d", trial, tc.name, rank, pos, l.Grid.LocateLinear(pos), p)
						}
					}
				}
			}
		}
	}
}
