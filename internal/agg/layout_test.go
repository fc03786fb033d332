package agg

import (
	"strings"
	"testing"

	"spio/internal/geom"
	"spio/internal/particle"
)

func unitCfg(simDims, factor geom.Idx3) Config {
	return Config{Domain: geom.UnitBox(), SimDims: simDims, Factor: factor}
}

// patchOf is the simulation patch of a rank.
func patchOf(cfg Config, rank int) geom.Box {
	return geom.NewGrid(cfg.Domain, cfg.SimDims).CellBox(geom.Unlinear(rank, cfg.SimDims))
}

// cellOf is the partition of an aligned rank: the one cell of its block.
func cellOf(t testing.TB, l *Layout, rank int) int {
	t.Helper()
	b := l.blocks[rank]
	if b.lo != b.hi {
		t.Fatalf("rank %d's block %v..%v is not one cell", rank, b.lo, b.hi)
	}
	return b.lo.Linear(l.Grid.Dims)
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		ranks  int
		substr string
	}{
		{"ok", unitCfg(geom.I3(4, 4, 1), geom.I3(2, 2, 1)), 16, ""},
		{"wrong ranks", unitCfg(geom.I3(4, 4, 1), geom.I3(2, 2, 1)), 8, "ranks"},
		{"factor not dividing", unitCfg(geom.I3(4, 4, 1), geom.I3(3, 1, 1)), 16, "divide"},
		{"zero factor", unitCfg(geom.I3(4, 4, 1), geom.I3(0, 1, 1)), 16, "factor"},
		{"zero dims", unitCfg(geom.I3(0, 4, 1), geom.I3(1, 1, 1)), 0, "dims"},
		{"empty domain", Config{Domain: geom.EmptyBox(), SimDims: geom.I3(1, 1, 1), Factor: geom.I3(1, 1, 1)}, 1, "domain"},
	}
	for _, c := range cases {
		err := c.cfg.Validate(c.ranks)
		if c.substr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.substr) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.substr)
		}
	}
}

func TestNumFilesPaperExamples(t *testing.T) {
	// Section 3.1: "with 4 × 4 = 16 processes and Px × Py = 2 × 2, the
	// total number of generated files will be (4/2) × (4/2) = 4".
	if got := unitCfg(geom.I3(4, 4, 1), geom.I3(2, 2, 1)).NumFiles(); got != 4 {
		t.Errorf("2x2 over 4x4 = %d files, want 4", got)
	}
	// Fig. 3b: 2x4 partitions over 4x4 processes -> 8 files.
	if got := unitCfg(geom.I3(4, 4, 1), geom.I3(2, 1, 1)).NumFiles(); got != 8 {
		t.Errorf("Fig 3b = %d files, want 8", got)
	}
	// Fig. 3c: 1x4 -> 4 files.
	if got := unitCfg(geom.I3(4, 4, 1), geom.I3(4, 1, 1)).NumFiles(); got != 4 {
		t.Errorf("Fig 3c = %d files, want 4", got)
	}
	// Fig. 3d: (1,1,1) is file per process.
	if got := unitCfg(geom.I3(4, 4, 1), geom.I3(1, 1, 1)).NumFiles(); got != 16 {
		t.Errorf("Fig 3d = %d files, want 16", got)
	}
	// Fig. 3f: whole-domain partition is shared-file.
	if got := unitCfg(geom.I3(4, 4, 1), geom.I3(4, 4, 1)).NumFiles(); got != 1 {
		t.Errorf("Fig 3f = %d files, want 1", got)
	}
	// Section 4: 64K processes at 2x2x2 -> 8K files.
	if got := unitCfg(geom.I3(64, 32, 32), geom.I3(2, 2, 2)).NumFiles(); got != 8192 {
		t.Errorf("64K at 2x2x2 = %d files, want 8192", got)
	}
}

func TestAggregatorSelectionPaperExample(t *testing.T) {
	// Section 3.2: 16 processes, 4 partitions -> aggregators 0, 4, 8, 12.
	l, err := NewLayout(unitCfg(geom.I3(4, 4, 1), geom.I3(2, 2, 1)), 16)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 4, 8, 12}
	if l.NumPartitions() != len(want) {
		t.Fatalf("%d partitions, want %d", l.NumPartitions(), len(want))
	}
	for p, r := range want {
		if l.Aggregator(p) != r {
			t.Fatalf("partition %d aggregated by rank %d, want %d", p, l.Aggregator(p), r)
		}
	}
}

func TestAggregatorsUniqueAndUniform(t *testing.T) {
	for _, tc := range []struct{ ranks, parts int }{
		{16, 4}, {64, 8}, {512, 64}, {100, 7}, {8, 8}, {9, 1},
	} {
		aggs := selectAggregators(tc.ranks, tc.parts)
		seen := make(map[int]bool)
		for i, a := range aggs {
			if a < 0 || a >= tc.ranks {
				t.Fatalf("%d/%d: aggregator %d out of range", tc.ranks, tc.parts, a)
			}
			if seen[a] {
				t.Fatalf("%d/%d: duplicate aggregator %d", tc.ranks, tc.parts, a)
			}
			seen[a] = true
			if i > 0 && a <= aggs[i-1] {
				t.Fatalf("%d/%d: aggregators not increasing: %v", tc.ranks, tc.parts, aggs)
			}
		}
	}
}

func TestIsAggregator(t *testing.T) {
	l, _ := NewLayout(unitCfg(geom.I3(4, 4, 1), geom.I3(2, 2, 1)), 16)
	if p, ok := l.IsAggregator(8); !ok || p != 2 {
		t.Errorf("IsAggregator(8) = %d, %v", p, ok)
	}
	if _, ok := l.IsAggregator(5); ok {
		t.Error("rank 5 should not be an aggregator")
	}
}

// TestPartitionOfRankMatchesGeometry: an aligned rank's block is the one
// partition holding its whole closed patch.
func TestPartitionOfRankMatchesGeometry(t *testing.T) {
	cfg := unitCfg(geom.I3(4, 4, 2), geom.I3(2, 2, 2))
	l, _ := NewLayout(cfg, 32)
	for rank := 0; rank < 32; rank++ {
		patch := patchOf(cfg, rank)
		part := cellOf(t, l, rank)
		if !l.PartitionBox(part).ContainsBox(patch) {
			t.Fatalf("rank %d patch %v not inside partition %d box %v",
				rank, patch, part, l.PartitionBox(part))
		}
	}
}

// TestRanksInPartitionInverse: on an aligned layout a partition's senders
// are its group, and exactly the ranks whose block is that partition.
func TestRanksInPartitionInverse(t *testing.T) {
	cfg := unitCfg(geom.I3(4, 4, 2), geom.I3(2, 2, 1))
	l, _ := NewLayout(cfg, 32)
	covered := make(map[int]bool)
	for part := 0; part < l.NumPartitions(); part++ {
		ranks := l.Senders(part)
		if len(ranks) != cfg.GroupSize() {
			t.Fatalf("partition %d has %d ranks, want %d", part, len(ranks), cfg.GroupSize())
		}
		for _, r := range ranks {
			if covered[r] {
				t.Fatalf("rank %d in two partitions", r)
			}
			covered[r] = true
			if cellOf(t, l, r) != part {
				t.Fatalf("rank %d: its block disagrees with the senders of %d", r, part)
			}
		}
	}
	if len(covered) != 32 {
		t.Fatalf("partitions cover %d ranks, want 32", len(covered))
	}
}

func TestPartitionBoxesTileDomain(t *testing.T) {
	cfg := unitCfg(geom.I3(8, 4, 2), geom.I3(2, 2, 2))
	l, _ := NewLayout(cfg, 64)
	var vol float64
	for p := 0; p < l.NumPartitions(); p++ {
		b := l.PartitionBox(p)
		vol += b.Volume()
		for q := 0; q < p; q++ {
			if b.Intersects(l.PartitionBox(q)) {
				t.Fatalf("partitions %d and %d overlap", p, q)
			}
		}
	}
	if d := vol - cfg.Domain.Volume(); d > 1e-9 || d < -1e-9 {
		t.Errorf("partition volumes sum to %v, domain is %v", vol, cfg.Domain.Volume())
	}
}

func TestSplitByPartition(t *testing.T) {
	domain := geom.UnitBox()
	grid := geom.NewGrid(domain, geom.I3(2, 2, 1))
	buf := particle.Uniform(particle.Uintah(), domain, 400, 3, 0)
	split := SplitByPartition(buf, grid, geom.Idx3{}, geom.I3(1, 1, 0))
	total := 0
	for p, idx := range split {
		total += len(idx)
		box := grid.CellBoxLinear(p)
		for k, i := range idx {
			if !box.Contains(buf.Position(i)) && !box.ContainsClosed(buf.Position(i)) {
				t.Fatalf("particle binned into wrong partition %d", p)
			}
			if k > 0 && idx[k-1] >= i {
				t.Fatalf("partition %d lists particle %d after %d: not buffer order", p, i, idx[k-1])
			}
		}
	}
	if total != 400 {
		t.Errorf("split lost particles: %d of 400", total)
	}
}

func TestSplitByPartitionEmpty(t *testing.T) {
	split := SplitByPartition(particle.NewBuffer(particle.Uintah(), 0), geom.NewGrid(geom.UnitBox(), geom.I3(2, 1, 1)), geom.Idx3{}, geom.I3(1, 0, 0))
	for _, idx := range split {
		if len(idx) != 0 {
			t.Error("empty buffer produced non-empty bins")
		}
	}
}

func TestGroupSizeAndFileCountRelation(t *testing.T) {
	// files * groupSize == ranks for every valid config.
	for _, f := range []geom.Idx3{geom.I3(1, 1, 1), geom.I3(2, 1, 1), geom.I3(2, 2, 1), geom.I3(2, 2, 2), geom.I3(4, 2, 2)} {
		cfg := unitCfg(geom.I3(4, 4, 4), f)
		if cfg.NumFiles()*cfg.GroupSize() != 64 {
			t.Errorf("factor %v: files %d * group %d != 64", f, cfg.NumFiles(), cfg.GroupSize())
		}
	}
}
