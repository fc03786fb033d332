package spio_test

// One benchmark per evaluation artifact (DESIGN.md §4) plus the ablation
// benches of DESIGN.md §5. Model-driven benches (Fig5..Fig8, Fig11)
// regenerate the paper's sweeps and report headline numbers as custom
// metrics; local benches (Fig9, Reorder, LocalWrite/Read, ablations)
// execute the real pipeline on this machine.
//
//	go test -bench=. -benchmem
//	go test -run='^$' -bench=BenchmarkFig5 .

import (
	"fmt"
	"os"
	"testing"

	"spio"
	"spio/internal/agg"
	"spio/internal/bench"
	"spio/internal/geom"
	"spio/internal/lod"
	"spio/internal/machine"
	"spio/internal/mpi"
	"spio/internal/particle"
	"spio/internal/perfmodel"
	"spio/internal/reader"
)

// ---- Fig. 5: weak-scaling write throughput (model) ----

func benchFig5(b *testing.B, m machine.Profile, factors []perfmodel.Factor, ppc int64) {
	var best float64
	for i := 0; i < b.N; i++ {
		rows, err := perfmodel.Fig5(m, ppc, factors, perfmodel.Fig5Scales())
		if err != nil {
			b.Fatal(err)
		}
		best = 0
		for _, r := range rows {
			if r.Ranks == 262144 && r.Result.ThroughputGBs() > best {
				best = r.Result.ThroughputGBs()
			}
		}
	}
	b.ReportMetric(best, "model-GB/s@256K")
}

func BenchmarkFig5Mira32K(b *testing.B) {
	benchFig5(b, machine.Mira(), perfmodel.MiraFactors(), 32768)
}
func BenchmarkFig5Mira64K(b *testing.B) {
	benchFig5(b, machine.Mira(), perfmodel.MiraFactors(), 65536)
}
func BenchmarkFig5Theta32K(b *testing.B) {
	benchFig5(b, machine.Theta(), perfmodel.ThetaFactors(), 32768)
}
func BenchmarkFig5Theta64K(b *testing.B) {
	benchFig5(b, machine.Theta(), perfmodel.ThetaFactors(), 65536)
}

// ---- Fig. 6: aggregation share at 32K ranks (model) ----

func benchFig6(b *testing.B, m machine.Profile, factors []perfmodel.Factor) {
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := perfmodel.Fig6(m, 32768, factors)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range rows {
			if r.AggPct > worst {
				worst = r.AggPct
			}
		}
	}
	b.ReportMetric(worst, "max-agg-%")
}

func BenchmarkFig6Mira(b *testing.B)  { benchFig6(b, machine.Mira(), perfmodel.MiraFactors()) }
func BenchmarkFig6Theta(b *testing.B) { benchFig6(b, machine.Theta(), perfmodel.ThetaFactors()) }

// ---- Fig. 7: read strong scaling (model) ----

func benchFig7(b *testing.B, m machine.Profile, readers []int) {
	var t float64
	for i := 0; i < b.N; i++ {
		rows := perfmodel.Fig7(m, perfmodel.DefaultFig7Dataset(), readers)
		for _, r := range rows {
			if r.Readers == readers[len(readers)-1] && r.Case == perfmodel.Case222WithMeta {
				t = r.Time.Seconds()
			}
		}
	}
	b.ReportMetric(t, "model-s@maxreaders")
}

func BenchmarkFig7Theta(b *testing.B) {
	benchFig7(b, machine.Theta(), []int{64, 128, 256, 512, 1024, 2048})
}
func BenchmarkFig7Workstation(b *testing.B) {
	benchFig7(b, machine.Workstation(), []int{1, 2, 4, 8, 16, 32, 64})
}

// ---- Fig. 8: LOD reads (model) ----

func benchFig8(b *testing.B, m machine.Profile) {
	var full float64
	for i := 0; i < b.N; i++ {
		rows := perfmodel.Fig8(m, perfmodel.DefaultFig7Dataset())
		full = rows[len(rows)-1].Time.Seconds()
	}
	b.ReportMetric(full, "model-s-full-read")
}

func BenchmarkFig8Theta(b *testing.B)       { benchFig8(b, machine.Theta()) }
func BenchmarkFig8Workstation(b *testing.B) { benchFig8(b, machine.Workstation()) }

// ---- Fig. 9: progressive LOD quality (local engine) ----

func BenchmarkFig9Local(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dir, err := os.MkdirTemp("", "spio-bench-fig9-*")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bench.Fig9(dir, 8, 16384); err != nil {
			b.Fatal(err)
		}
		os.RemoveAll(dir)
	}
}

// ---- Fig. 11: adaptive aggregation (model) ----

func benchFig11(b *testing.B, m machine.Profile) {
	var gain float64
	for i := 0; i < b.N; i++ {
		rows, err := perfmodel.Fig11(m, 32768)
		if err != nil {
			b.Fatal(err)
		}
		var ad, non float64
		for _, r := range rows {
			if r.OccupancyPct == 12.5 {
				if r.Adaptive {
					ad = r.Result.AggPlusIO().Seconds()
				} else {
					non = r.Result.AggPlusIO().Seconds()
				}
			}
		}
		gain = non / ad
	}
	b.ReportMetric(gain, "speedup@12.5%")
}

func BenchmarkFig11Mira(b *testing.B)  { benchFig11(b, machine.Mira()) }
func BenchmarkFig11Theta(b *testing.B) { benchFig11(b, machine.Theta()) }

// ---- Section 3.4: LOD reorder of 32K particles (local measurement;
// paper: 33 ms on Mira, 80 ms on Theta) ----

func BenchmarkReorder32K(b *testing.B) {
	buf := particle.Uniform(particle.Uintah(), geom.UnitBox(), 32768, 7, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lod.Shuffle(buf, int64(i))
	}
}

// ---- Local-engine end-to-end write and read ----

func BenchmarkLocalWrite16Ranks(b *testing.B) {
	simDims := spio.I3(4, 4, 1)
	grid := spio.NewGrid(spio.UnitBox(), simDims)
	cfg := spio.WriteConfig{
		Agg: spio.AggConfig{Domain: spio.UnitBox(), SimDims: simDims, Factor: spio.I3(2, 2, 1)},
	}
	const perRank = 8192
	locals := make([]*spio.Buffer, simDims.Volume())
	for r := range locals {
		locals[r] = spio.Uniform(spio.UintahSchema(), grid.CellBox(spio.Unlinear(r, simDims)), perRank, 3, r)
	}
	b.SetBytes(int64(simDims.Volume()) * perRank * 124)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir, err := os.MkdirTemp("", "spio-bench-write-*")
		if err != nil {
			b.Fatal(err)
		}
		err = spio.Run(simDims.Volume(), func(c *spio.Comm) error {
			_, werr := spio.Write(c, dir, cfg, locals[c.Rank()])
			return werr
		})
		if err != nil {
			b.Fatal(err)
		}
		os.RemoveAll(dir)
	}
}

func writeBenchDataset(b *testing.B) string {
	b.Helper()
	dir, err := os.MkdirTemp("", "spio-bench-read-*")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	simDims := spio.I3(4, 4, 1)
	grid := spio.NewGrid(spio.UnitBox(), simDims)
	cfg := spio.WriteConfig{
		Agg: spio.AggConfig{Domain: spio.UnitBox(), SimDims: simDims, Factor: spio.I3(2, 2, 1)},
	}
	err = spio.Run(simDims.Volume(), func(c *spio.Comm) error {
		local := spio.Uniform(spio.UintahSchema(), grid.CellBox(spio.Unlinear(c.Rank(), simDims)), 8192, 3, c.Rank())
		_, werr := spio.Write(c, dir, cfg, local)
		return werr
	})
	if err != nil {
		b.Fatal(err)
	}
	return dir
}

func BenchmarkLocalBoxQuery(b *testing.B) {
	dir := writeBenchDataset(b)
	ds, err := spio.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	q := spio.NewBox(spio.V3(0.1, 0.1, 0.1), spio.V3(0.4, 0.4, 0.9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ds.QueryBox(q, spio.QueryOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalLODRead(b *testing.B) {
	dir := writeBenchDataset(b)
	ds, err := spio.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ds.ReadAll(spio.QueryOptions{Levels: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablations (DESIGN.md §5) ----

// Ablation 1: LOD heuristic — random shuffle (paper default) vs
// density-stratified ordering; CPU cost of each on an aggregator-sized
// buffer (quality is compared in internal/stats tests).
func BenchmarkAblationLODRandom(b *testing.B) {
	buf := particle.Clustered(particle.Uintah(), geom.UnitBox(), 262144, 4, 7, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lod.Shuffle(buf, int64(i))
	}
}

func BenchmarkAblationLODDensity(b *testing.B) {
	buf := particle.Clustered(particle.Uintah(), geom.UnitBox(), 262144, 4, 7, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lod.Stratify(buf, geom.I3(8, 8, 8), int64(i))
	}
}

// Ablation 2: aligned vs non-aligned aggregation-grid — the aligned
// grid skips the per-particle binning scan (paper Section 3.3). Both
// run the same 16-rank exchange; the scan variant uses a deliberately
// misaligned grid.
func BenchmarkAblationAlignedExchange(b *testing.B) {
	cfg := agg.Config{Domain: geom.UnitBox(), SimDims: geom.I3(4, 4, 1), Factor: geom.I3(2, 2, 1)}
	layout, err := agg.NewLayout(cfg, 16)
	if err != nil {
		b.Fatal(err)
	}
	grid := geom.NewGrid(geom.UnitBox(), cfg.SimDims)
	locals := make([]*particle.Buffer, 16)
	for r := range locals {
		locals[r] = particle.Uniform(particle.Uintah(), grid.CellBoxLinear(r), 8192, 3, r)
	}
	b.SetBytes(16 * 8192 * 124)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := mpi.Run(16, func(c *mpi.Comm) error {
			ag, _, err := layout.Exchange(c, locals[c.Rank()])
			ag.Rows.Release()
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationScanExchange(b *testing.B) {
	simGrid := geom.NewGrid(geom.UnitBox(), geom.I3(4, 4, 1))
	patches := make([]geom.Box, 16)
	for r := range patches {
		patches[r] = simGrid.CellBoxLinear(r)
	}
	// Misaligned: 3 partitions over 16 patches along x.
	layout, err := agg.NewImposedLayout(geom.UnitBox(), geom.I3(3, 1, 1), patches)
	if err != nil {
		b.Fatal(err)
	}
	locals := make([]*particle.Buffer, 16)
	for r := range locals {
		locals[r] = particle.Uniform(particle.Uintah(), simGrid.CellBoxLinear(r), 8192, 3, r)
	}
	b.SetBytes(16 * 8192 * 124)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := mpi.Run(16, func(c *mpi.Comm) error {
			ag, _, err := layout.Exchange(c, locals[c.Rank()])
			ag.Rows.Release()
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation 3: the metadata exchange's purpose — pre-sizing the
// aggregation buffer. Decoding the same records into a pre-sized buffer
// vs growing from zero capacity.
func BenchmarkAblationPresizedBuffer(b *testing.B) {
	src := particle.Uniform(particle.Uintah(), geom.UnitBox(), 65536, 3, 0)
	data := src.Encode()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := particle.NewBuffer(particle.Uintah(), 65536)
		if err := dst.DecodeRecords(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationUnsizedBuffer(b *testing.B) {
	src := particle.Uniform(particle.Uintah(), geom.UnitBox(), 65536, 3, 0)
	data := src.Encode()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := particle.NewBuffer(particle.Uintah(), 0)
		if err := dst.DecodeRecords(data); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation 4: reader file assignment — Morton-ordered spatial chunks vs
// naive index order. The metric is locality: the average diagonal of the
// union bounding box of each reader's file set (shorter = more compact
// tiles = fewer wasted reads for tile queries; naive index order hands
// each reader a long thin slab).
func benchAssignment(b *testing.B, morton bool) {
	dir := writeBenchDatasetFPP(b)
	ds, err := reader.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	meta := ds.Meta()
	var avgVol float64
	for i := 0; i < b.N; i++ {
		const nReaders = 4
		total := 0.0
		for r := 0; r < nReaders; r++ {
			var entries []*spio.FileEntry
			if morton {
				entries = reader.AssignFiles(meta, nReaders, r)
			} else {
				lo := r * len(meta.Files) / nReaders
				hi := (r + 1) * len(meta.Files) / nReaders
				for j := lo; j < hi; j++ {
					entries = append(entries, &meta.Files[j])
				}
			}
			u := geom.EmptyBox()
			for _, e := range entries {
				u = u.Union(e.Partition)
			}
			total += u.Size().Len()
		}
		avgVol = total / nReaders
	}
	b.ReportMetric(avgVol, "avg-reader-bbox-diag")
}

func writeBenchDatasetFPP(b *testing.B) string {
	b.Helper()
	dir, err := os.MkdirTemp("", "spio-bench-fpp-*")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	simDims := spio.I3(4, 4, 1)
	grid := spio.NewGrid(spio.UnitBox(), simDims)
	cfg := spio.WriteConfig{
		Agg: spio.AggConfig{Domain: spio.UnitBox(), SimDims: simDims, Factor: spio.I3(1, 1, 1)},
	}
	err = spio.Run(simDims.Volume(), func(c *spio.Comm) error {
		local := spio.Uniform(spio.UintahSchema(), grid.CellBox(spio.Unlinear(c.Rank(), simDims)), 64, 3, c.Rank())
		_, werr := spio.Write(c, dir, cfg, local)
		return werr
	})
	if err != nil {
		b.Fatal(err)
	}
	return dir
}

func BenchmarkAblationAssignMorton(b *testing.B) { benchAssignment(b, true) }
func BenchmarkAblationAssignNaive(b *testing.B)  { benchAssignment(b, false) }

// Sanity: the benchmarks above assume particular figure row counts.
func TestBenchAssumptions(t *testing.T) {
	rows := perfmodel.Fig8(machine.Theta(), perfmodel.DefaultFig7Dataset())
	if len(rows) == 0 {
		t.Fatal("Fig8 empty")
	}
	if got := fmt.Sprintf("%v", perfmodel.F(2, 2, 4)); got != "2x2x4" {
		t.Errorf("factor naming %q", got)
	}
}
