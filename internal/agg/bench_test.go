package agg

import (
	"testing"

	"spio/internal/geom"
	"spio/internal/mpi"
	"spio/internal/particle"
)

func BenchmarkExchangeAligned64Ranks(b *testing.B) {
	cfg := unitCfg(geom.I3(4, 4, 4), geom.I3(2, 2, 2))
	layout, err := NewLayout(cfg, 64)
	if err != nil {
		b.Fatal(err)
	}
	locals := make([]*particle.Buffer, 64)
	for r := range locals {
		locals[r] = particle.Uniform(particle.Uintah(), patchOf(cfg, r), 4096, 3, r)
	}
	b.SetBytes(64 * 4096 * 124)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := mpi.Run(64, func(c *mpi.Comm) error {
			ag, _, err := layout.Exchange(c, locals[c.Rank()])
			ag.Rows.Release()
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSplitByPartition(b *testing.B) {
	grid := geom.NewGrid(geom.UnitBox(), geom.I3(4, 4, 4))
	buf := particle.Uniform(particle.Uintah(), geom.UnitBox(), 65536, 3, 0)
	b.SetBytes(buf.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SplitByPartition(buf, grid, geom.Idx3{}, geom.I3(3, 3, 3))
	}
}

func BenchmarkBuildAdaptive64Ranks(b *testing.B) {
	domain := geom.UnitBox()
	simDims := geom.I3(4, 4, 4)
	simGrid := geom.NewGrid(domain, simDims)
	locals := make([]*particle.Buffer, 64)
	for r := range locals {
		patch := simGrid.CellBox(geom.Unlinear(r, simDims))
		locals[r] = particle.Occupancy(particle.Uintah(), domain, patch, 1024, 0.5, 3, r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := mpi.Run(64, func(c *mpi.Comm) error {
			_, err := BuildAdaptive(c, domain, geom.I3(2, 2, 2), locals[c.Rank()])
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUniformPlan256K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := UniformPlan(262144, 32, 32768, 124); err != nil {
			b.Fatal(err)
		}
	}
}
