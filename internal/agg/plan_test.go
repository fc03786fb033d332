package agg

import (
	"testing"
	"testing/quick"
)

func TestUniformPlanPaperNumbers(t *testing.T) {
	// Section 5.2: "with 32K particles per-process at 4096 process, file
	// per-process I/O will produce 4096 files, each 4MB; however,
	// aggregating with a (2, 2, 4) grid will produce 128 files, each
	// 128MB".
	fpp, err := UniformPlan(4096, 1, 32768, 124)
	if err != nil {
		t.Fatal(err)
	}
	if fpp.NumFiles() != 4096 {
		t.Errorf("fpp files = %d", fpp.NumFiles())
	}
	perFileMB := float64(fpp.MaxPartBytes()) / (1 << 20)
	if perFileMB < 3.5 || perFileMB > 4.5 {
		t.Errorf("fpp file size = %.2f MB, want ~4", perFileMB)
	}
	agg224, err := UniformPlan(4096, 2*2*4, 32768, 124)
	if err != nil {
		t.Fatal(err)
	}
	if agg224.NumFiles() != 256 {
		// 4096/16 = 256; the paper's "128 files" corresponds to its own
		// nx,ny,nz decomposition — the invariant we hold is files =
		// ranks / groupSize.
		t.Errorf("(2,2,4) files = %d, want 256", agg224.NumFiles())
	}
	if agg224.TotalBytes() != fpp.TotalBytes() {
		t.Error("aggregation must not change total bytes")
	}
	ratio := float64(agg224.MaxPartBytes()) / float64(fpp.MaxPartBytes())
	if ratio != 16 {
		t.Errorf("burst size ratio = %v, want 16 (the group size)", ratio)
	}
}

func TestUniformPlanWeakScaling(t *testing.T) {
	// Weak scaling doubles total bytes with ranks; per-file burst stays
	// constant for a fixed factor.
	a, _ := UniformPlan(512, 8, 32768, 124)
	b, _ := UniformPlan(1024, 8, 32768, 124)
	if b.TotalBytes() != 2*a.TotalBytes() {
		t.Error("weak scaling should double total bytes")
	}
	if a.MaxPartBytes() != b.MaxPartBytes() {
		t.Error("per-file burst should be scale-invariant for fixed factor")
	}
	for _, p := range []*Plan{a, b} {
		for _, pp := range p.Parts {
			if pp.Senders != 8 {
				t.Fatal("sender fan-in should equal group size")
			}
		}
	}
}

func TestUniformPlanErrors(t *testing.T) {
	if _, err := UniformPlan(10, 3, 100, 124); err == nil {
		t.Error("non-dividing group accepted")
	}
	if _, err := UniformPlan(10, 0, 100, 124); err == nil {
		t.Error("zero group accepted")
	}
}

func TestOccupancyPlanNonAdaptive(t *testing.T) {
	// q=0.25 with 64 partitions: only 16 receive particles, each 4x the
	// uniform load.
	p, err := OccupancyPlan(512, 8, 1000, 124, 0.25, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Parts) != 64 {
		t.Fatalf("parts = %d", len(p.Parts))
	}
	if p.NumFiles() != 16 {
		t.Errorf("active files = %d, want 16", p.NumFiles())
	}
	if p.TotalParticles() != 512*1000 {
		t.Errorf("total = %d", p.TotalParticles())
	}
	uniform, _ := UniformPlan(512, 8, 1000, 124)
	if p.MaxPartBytes() != 4*uniform.MaxPartBytes() {
		t.Errorf("active file burst = %d, want 4x uniform %d", p.MaxPartBytes(), uniform.MaxPartBytes())
	}
}

func TestOccupancyPlanAdaptive(t *testing.T) {
	p, err := OccupancyPlan(512, 8, 1000, 124, 0.25, true)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumFiles() != 64 {
		t.Errorf("adaptive should fill all 64 files, got %d", p.NumFiles())
	}
	if p.TotalParticles() != 512*1000 {
		t.Errorf("total = %d", p.TotalParticles())
	}
	// Balanced: max within 1 particle of min.
	var mx, mn int64 = 0, 1 << 62
	for _, pp := range p.Parts {
		if pp.Particles > mx {
			mx = pp.Particles
		}
		if pp.Particles < mn {
			mn = pp.Particles
		}
	}
	if mx-mn > 1 {
		t.Errorf("adaptive imbalance: %d..%d", mn, mx)
	}
	// Fewer senders per partition than the non-adaptive group at q<1.
	for _, pp := range p.Parts {
		if pp.Senders > 8 {
			t.Errorf("adaptive senders = %d", pp.Senders)
		}
	}
}

func TestOccupancyPlanFullOccupancyMatchesUniformLoad(t *testing.T) {
	occ, _ := OccupancyPlan(256, 4, 500, 124, 1.0, false)
	uni, _ := UniformPlan(256, 4, 500, 124)
	if occ.TotalBytes() != uni.TotalBytes() || occ.NumFiles() != uni.NumFiles() {
		t.Error("q=1 occupancy should look like the uniform plan")
	}
}

func TestOccupancyPlanErrors(t *testing.T) {
	if _, err := OccupancyPlan(64, 4, 100, 124, 0, false); err == nil {
		t.Error("q=0 accepted")
	}
	if _, err := OccupancyPlan(64, 4, 100, 124, 1.5, false); err == nil {
		t.Error("q>1 accepted")
	}
	if _, err := OccupancyPlan(64, 5, 100, 124, 0.5, false); err == nil {
		t.Error("non-dividing group accepted")
	}
}

func TestQuickOccupancyPlanConservesTotal(t *testing.T) {
	f := func(ranksRaw, groupRaw uint8, ppcRaw uint16, qRaw uint8, adaptive bool) bool {
		group := int(groupRaw%4) + 1
		ranks := group * (int(ranksRaw%32) + 1)
		ppc := int64(ppcRaw%2000) + 1
		q := (float64(qRaw%100) + 1) / 100
		p, err := OccupancyPlan(ranks, group, ppc, 124, q, adaptive)
		if err != nil {
			return false
		}
		return p.TotalParticles() == int64(ranks)*ppc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPlanValidate(t *testing.T) {
	p := &Plan{NumRanks: 0}
	if p.Validate() == nil {
		t.Error("zero ranks accepted")
	}
	p = &Plan{NumRanks: 1, BytesPerParticle: 124}
	if p.Validate() == nil {
		t.Error("no partitions accepted")
	}
}
