package geom

import (
	"math/rand"
	"testing"
)

func TestMortonKnownValues(t *testing.T) {
	cases := []struct {
		x, y, z uint32
		want    uint64
	}{
		{0, 0, 0, 0},
		{1, 0, 0, 1},
		{0, 1, 0, 2},
		{0, 0, 1, 4},
		{1, 1, 1, 7},
		{2, 0, 0, 8},
		{3, 3, 3, 63},
	}
	for _, c := range cases {
		if got := MortonEncode3(c.x, c.y, c.z); got != c.want {
			t.Errorf("MortonEncode3(%d,%d,%d) = %d, want %d", c.x, c.y, c.z, got, c.want)
		}
	}
}

func TestMortonInjective(t *testing.T) {
	seen := make(map[uint64]Idx3)
	for z := 0; z < 8; z++ {
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				k := MortonOfIdx(I3(x, y, z))
				if prev, dup := seen[k]; dup {
					t.Fatalf("key %d for both %v and (%d,%d,%d)", k, prev, x, y, z)
				}
				seen[k] = I3(x, y, z)
			}
		}
	}
}

func TestMortonLocalityBeatsRowMajor(t *testing.T) {
	// Locality sanity: over a 16^3 grid, the average |Δkey| between
	// face-adjacent neighbours should be far smaller in Morton order than
	// the worst-case row-major stride for the Z axis.
	dims := I3(16, 16, 16)
	var mortonSum, rowSum float64
	var count int
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 4000; i++ {
		a := I3(r.Intn(15), r.Intn(16), r.Intn(16))
		b := a.Add(I3(1, 0, 0))
		mortonSum += absDiffU64(MortonOfIdx(a), MortonOfIdx(b))
		rowSum += absDiffU64(uint64(a.Linear(dims)), uint64(b.Linear(dims)))
		count++
	}
	if count == 0 || mortonSum <= 0 {
		t.Fatal("no samples")
	}
	// Not a strong claim, just that x-neighbours stay close under Morton.
	if mortonSum/float64(count) > 64 {
		t.Errorf("average morton x-neighbour distance %v unexpectedly large", mortonSum/float64(count))
	}
	_ = rowSum
}

func absDiffU64(a, b uint64) float64 {
	if a > b {
		return float64(a - b)
	}
	return float64(b - a)
}
