package lod

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"spio/internal/geom"
	"spio/internal/particle"
)

func TestLevelSizesPaperExample(t *testing.T) {
	// Section 3.4: 100 particles, one reader, P=32, S=2 → levels of
	// 32, 64, and the remaining 4.
	got := LevelSizes(100, 32, 2)
	want := []int64{32, 64, 4}
	if len(got) != len(want) {
		t.Fatalf("LevelSizes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LevelSizes = %v, want %v", got, want)
		}
	}
}

func TestLevelSizesPaperFig8Config(t *testing.T) {
	// Section 5.4: 2^31 particles, n=64 readers, P=32, S=2 → the last
	// level is l = log2(2^31/(64·32)) = 20, i.e. 21 level entries
	// (levels 0..20).
	total := int64(1) << 31
	base := int64(64 * 32)
	sizes := LevelSizes(total, base, 2)
	if len(sizes) != 21 {
		t.Fatalf("got %d levels, want 21 (0..20)", len(sizes))
	}
	if NumLevels(total, base, 2) != len(sizes) {
		t.Error("NumLevels disagrees with LevelSizes")
	}
	var sum int64
	for _, s := range sizes {
		sum += s
	}
	if sum != total {
		t.Errorf("sizes sum to %d, want %d", sum, total)
	}
}

func TestLevelSizesGeometricGrowth(t *testing.T) {
	sizes := LevelSizes(1<<20, 16, 2)
	for l := 1; l < len(sizes)-1; l++ {
		if sizes[l] != 2*sizes[l-1] {
			t.Fatalf("level %d size %d is not 2x level %d size %d", l, sizes[l], l-1, sizes[l-1])
		}
	}
}

func TestLevelSizesScale4(t *testing.T) {
	sizes := LevelSizes(100, 4, 4)
	want := []int64{4, 16, 64, 16}
	if len(sizes) != len(want) {
		t.Fatalf("sizes = %v", sizes)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("sizes = %v, want %v", sizes, want)
		}
	}
}

func TestLevelSizesEdge(t *testing.T) {
	if got := LevelSizes(0, 32, 2); got != nil {
		t.Errorf("LevelSizes(0) = %v", got)
	}
	got := LevelSizes(10, 32, 2)
	if len(got) != 1 || got[0] != 10 {
		t.Errorf("small total = %v", got)
	}
}

func TestLevelSizesPanicsOnInvalid(t *testing.T) {
	for name, fn := range map[string]func(){
		"negative total": func() { LevelSizes(-1, 32, 2) },
		"zero base":      func() { LevelSizes(10, 0, 2) },
		"scale 1":        func() { LevelSizes(10, 32, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestQuickLevelSizesPartition(t *testing.T) {
	f := func(total uint32, baseRaw uint16, scaleRaw uint8) bool {
		base := int64(baseRaw%1000) + 1
		scale := int(scaleRaw%7) + 2
		sizes := LevelSizes(int64(total), base, scale)
		var sum int64
		prev := int64(0)
		for i, s := range sizes {
			if s <= 0 {
				return false
			}
			// Non-final levels are exactly base*scale^i and grow.
			if i < len(sizes)-1 && i > 0 && s != prev*int64(scale) {
				return false
			}
			prev = s
			sum += s
		}
		return sum == int64(total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPrefixCount(t *testing.T) {
	if got := PrefixCount(100, 32, 2, 0); got != 0 {
		t.Errorf("prefix 0 = %d", got)
	}
	if got := PrefixCount(100, 32, 2, 1); got != 32 {
		t.Errorf("prefix 1 = %d", got)
	}
	if got := PrefixCount(100, 32, 2, 2); got != 96 {
		t.Errorf("prefix 2 = %d", got)
	}
	if got := PrefixCount(100, 32, 2, 3); got != 100 {
		t.Errorf("prefix 3 = %d", got)
	}
	if got := PrefixCount(100, 32, 2, 99); got != 100 {
		t.Errorf("prefix beyond end = %d", got)
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
	if (Params{BasePerReader: 0, Scale: 2}).Validate() == nil {
		t.Error("zero P should be invalid")
	}
	if (Params{BasePerReader: 32, Scale: 1}).Validate() == nil {
		t.Error("scale 1 should be invalid")
	}
}

func idsOf(b *particle.Buffer) []float64 {
	f := b.Float64Field(b.Schema().FieldIndex("id"))
	cp := make([]float64, len(f))
	copy(cp, f)
	return cp
}

func TestShuffleIsPermutation(t *testing.T) {
	patch := geom.UnitBox()
	b := particle.Uniform(particle.Uintah(), patch, 500, 3, 0)
	before := idsOf(b)
	Shuffle(b, 99)
	after := idsOf(b)
	sort.Float64s(before)
	sorted := append([]float64(nil), after...)
	sort.Float64s(sorted)
	for i := range before {
		if before[i] != sorted[i] {
			t.Fatal("shuffle is not a permutation")
		}
	}
	// And it actually moved things.
	moved := 0
	for i, id := range after {
		if id != float64(i) {
			moved++
		}
	}
	if moved < 400 {
		t.Errorf("only %d of 500 particles moved", moved)
	}
}

func TestShuffleDeterministic(t *testing.T) {
	a := particle.Uniform(particle.Uintah(), geom.UnitBox(), 200, 5, 0)
	b := particle.Uniform(particle.Uintah(), geom.UnitBox(), 200, 5, 0)
	Shuffle(a, 7)
	Shuffle(b, 7)
	if !a.Equal(b) {
		t.Error("same seed should give same shuffle")
	}
	c := particle.Uniform(particle.Uintah(), geom.UnitBox(), 200, 5, 0)
	Shuffle(c, 8)
	if a.Equal(c) {
		t.Error("different seeds should differ")
	}
}

func TestShuffleKeepsRecordsIntact(t *testing.T) {
	// After shuffling, each particle's auxiliary data must still
	// correspond to its position (fillAux derives density from position).
	b := particle.Uniform(particle.Uintah(), geom.UnitBox(), 300, 11, 2)
	type rec struct {
		pos geom.Vec3
		id  float64
	}
	byID := make(map[float64]rec)
	ids := b.Float64Field(b.Schema().FieldIndex("id"))
	for i := 0; i < b.Len(); i++ {
		byID[ids[i]] = rec{pos: b.Position(i), id: ids[i]}
	}
	Shuffle(b, 1)
	ids = b.Float64Field(b.Schema().FieldIndex("id"))
	for i := 0; i < b.Len(); i++ {
		want, ok := byID[ids[i]]
		if !ok {
			t.Fatal("unknown id after shuffle")
		}
		if b.Position(i) != want.pos {
			t.Fatalf("particle %v position decoupled from id", ids[i])
		}
	}
}

func TestApplyPermutation(t *testing.T) {
	b := particle.Uniform(particle.Uintah(), geom.UnitBox(), 6, 2, 0)
	orig := b.Slice(0, 6)
	perm := []int{3, 1, 4, 0, 5, 2}
	ApplyPermutation(b, perm)
	for i, o := range perm {
		if b.Position(i) != orig.Position(o) {
			t.Fatalf("slot %d should hold original %d", i, o)
		}
	}
}

func TestApplyPermutationIdentityAndReverse(t *testing.T) {
	b := particle.Uniform(particle.Uintah(), geom.UnitBox(), 50, 2, 0)
	orig := b.Slice(0, 50)
	id := make([]int, 50)
	for i := range id {
		id[i] = i
	}
	ApplyPermutation(b, id)
	if !b.Equal(orig) {
		t.Error("identity permutation changed buffer")
	}
	rev := make([]int, 50)
	for i := range rev {
		rev[i] = 49 - i
	}
	ApplyPermutation(b, rev)
	for i := 0; i < 50; i++ {
		if b.Position(i) != orig.Position(49-i) {
			t.Fatal("reverse permutation wrong")
		}
	}
}

func TestApplyPermutationLengthMismatchPanics(t *testing.T) {
	b := particle.Uniform(particle.Uintah(), geom.UnitBox(), 5, 2, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ApplyPermutation(b, []int{0, 1})
}

func TestQuickApplyPermutationRandom(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		n := 1 + r.Intn(60)
		b := particle.Uniform(particle.Uintah(), geom.UnitBox(), n, int64(trial), 0)
		orig := b.Slice(0, n)
		perm := r.Perm(n)
		ApplyPermutation(b, perm)
		for i, o := range perm {
			if b.Position(i) != orig.Position(o) {
				t.Fatalf("trial %d: slot %d wrong", trial, i)
			}
		}
	}
}

// TestStratifyIsPermutation also stratifies particles flat on an axis far
// from the origin, where the bounds' inflation is below the coordinates'
// precision: the grid over them used to be empty, and NewGrid panicked.
func TestStratifyIsPermutation(t *testing.T) {
	far := geom.NewBox(geom.V3(1e9, 1e9, 1e9), geom.V3(1e9+1, 1e9+1, 1e9+1))
	flat := particle.Uniform(particle.Uintah(), far, 50, 9, 0)
	for i := 0; i < flat.Len(); i++ {
		flat.SetPosition(i, flat.Position(i).WithComp(0, far.Hi.X))
	}
	for _, b := range []*particle.Buffer{particle.Clustered(particle.Uintah(), geom.UnitBox(), 400, 3, 9, 0), flat} {
		before := idsOf(b)
		Stratify(b, geom.I3(4, 4, 4), 1)
		after := idsOf(b)
		sort.Float64s(before)
		sort.Float64s(after)
		for i := range before {
			if before[i] != after[i] {
				t.Fatal("stratify is not a permutation")
			}
		}
	}
}

func TestStratifyPrefixCoversCells(t *testing.T) {
	// With k occupied cells, the first k particles of a stratified order
	// must all come from distinct cells.
	b := particle.Uniform(particle.Uintah(), geom.UnitBox(), 1000, 17, 0)
	dims := geom.I3(4, 4, 4)
	Stratify(b, dims, 2)
	bounds := b.Bounds()
	bounds.Hi = bounds.Hi.Add(geom.V3(1e-9, 1e-9, 1e-9))
	g := geom.NewGrid(bounds, dims)
	seen := make(map[int]bool)
	for i := 0; i < g.Cells() && i < b.Len(); i++ {
		c := g.LocateLinear(b.Position(i))
		if seen[c] {
			t.Fatalf("cell %d repeated within the first round", c)
		}
		seen[c] = true
	}
}

func TestStratifyBeatsRandomOnClusteredCoverage(t *testing.T) {
	// For clustered data, the 10%-prefix of a stratified order should
	// touch at least as many occupied cells as a random shuffle's.
	mk := func() *particle.Buffer {
		return particle.Clustered(particle.Uintah(), geom.UnitBox(), 2000, 4, 21, 0)
	}
	dims := geom.I3(8, 8, 8)
	coverage := func(b *particle.Buffer, prefix int) int {
		bounds := b.Bounds()
		bounds.Hi = bounds.Hi.Add(geom.V3(1e-9, 1e-9, 1e-9))
		g := geom.NewGrid(bounds, dims)
		seen := make(map[int]bool)
		for i := 0; i < prefix; i++ {
			seen[g.LocateLinear(b.Position(i))] = true
		}
		return len(seen)
	}
	s := mk()
	Stratify(s, dims, 3)
	r := mk()
	Shuffle(r, 3)
	if cs, cr := coverage(s, 200), coverage(r, 200); cs < cr {
		t.Errorf("stratified prefix covers %d cells < random %d", cs, cr)
	}
}

func TestReorderDispatch(t *testing.T) {
	a := particle.Uniform(particle.Uintah(), geom.UnitBox(), 100, 1, 0)
	b := particle.Uniform(particle.Uintah(), geom.UnitBox(), 100, 1, 0)
	Reorder(a, Random, 5)
	Shuffle(b, 5)
	if !a.Equal(b) {
		t.Error("Reorder(Random) != Shuffle")
	}
	Reorder(a, DensityStratified, 5) // must not panic
	if Random.String() != "random" || DensityStratified.String() != "density" {
		t.Error("heuristic names wrong")
	}
}

func TestReorderEmptyAndSingle(t *testing.T) {
	for _, n := range []int{0, 1} {
		b := particle.Uniform(particle.Uintah(), geom.UnitBox(), n, 1, 0)
		Shuffle(b, 1)
		Stratify(b, geom.I3(2, 2, 2), 1)
		if b.Len() != n {
			t.Errorf("n=%d: length changed", n)
		}
	}
}
