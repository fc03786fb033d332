// Package lod implements the paper's level-of-detail particle layout
// (Section 3.4): after aggregation, each aggregator reorders its
// particles in place so that every prefix of the written file is a
// representative subset of the whole. Level l of a dataset read by n
// processes holds up to x(n, l) = n·P·S^l particles, where P is the
// particles-per-reader in level 0 and S the resolution scale (default 2).
// The levels are implicit — plain subranges of the reordered sequence —
// so the layout costs no extra storage.
//
// Two reorder heuristics are provided, matching the paper's "different
// kinds of heuristics such as density or random": a seeded uniform
// shuffle (the paper's default), and a density-stratified order that
// round-robins over spatial bins so low levels cover the domain evenly.
package lod

import (
	"fmt"
	"math"
	"math/rand"

	"spio/internal/geom"
	"spio/internal/particle"
)

// DefaultScale is the paper's default resolution scale factor S.
const DefaultScale = 2

// Params describes an LOD layout.
type Params struct {
	// BasePerReader is P: the number of particles each reading process
	// gets at level 0.
	BasePerReader int
	// Scale is S: the per-level multiplier (>= 2).
	Scale int
}

// DefaultParams returns the configuration used throughout the paper's
// evaluation (Section 5.4): P = 32, S = 2.
func DefaultParams() Params { return Params{BasePerReader: 32, Scale: DefaultScale} }

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.BasePerReader <= 0 {
		return fmt.Errorf("lod: BasePerReader must be positive, got %d", p.BasePerReader)
	}
	if p.Scale < 2 {
		return fmt.Errorf("lod: Scale must be >= 2, got %d", p.Scale)
	}
	return nil
}

// LevelSizes returns the particle count of each level for a sequence of
// total particles read at base granularity base = n·P: level l holds
// min(base·S^l, remaining). The sizes sum to total; the final level
// holds the remainder (paper example: 100 particles, base 32, S 2 →
// [32, 64, 4]).
func LevelSizes(total, base int64, scale int) []int64 {
	if total < 0 || base <= 0 || scale < 2 {
		panic(fmt.Sprintf("lod: invalid LevelSizes(%d, %d, %d)", total, base, scale))
	}
	var sizes []int64
	size := base
	for remaining := total; remaining > 0; {
		if size > remaining {
			size = remaining
		}
		sizes = append(sizes, size)
		remaining -= size
		// Guard against overflow for absurd level counts.
		if size > (1<<62)/int64(scale) {
			size = 1 << 62
		} else {
			size *= int64(scale)
		}
	}
	return sizes
}

// NumLevels returns len(LevelSizes(total, base, scale)) without building
// the slice.
func NumLevels(total, base int64, scale int) int {
	n := 0
	size := base
	for remaining := total; remaining > 0; n++ {
		if size > remaining {
			size = remaining
		}
		remaining -= size
		if size > (1<<62)/int64(scale) {
			size = 1 << 62
		} else {
			size *= int64(scale)
		}
	}
	return n
}

// PrefixCount returns the number of particles covered by levels
// [0, levels), i.e. how much of the sequence a reader loads to get the
// first `levels` levels of detail.
func PrefixCount(total, base int64, scale int, levels int) int64 {
	if levels <= 0 {
		return 0
	}
	var sum int64
	for i, s := range LevelSizes(total, base, scale) {
		if i >= levels {
			break
		}
		sum += s
	}
	return sum
}

// Heuristic selects the reorder strategy.
type Heuristic int

const (
	// Random is the paper's default: a seeded uniform reshuffle.
	Random Heuristic = iota
	// DensityStratified bins particles on a coarse grid over their
	// bounds and emits them round-robin across bins, so every prefix
	// covers the occupied space evenly even for clustered inputs.
	DensityStratified
)

func (h Heuristic) String() string {
	switch h {
	case Random:
		return "random"
	case DensityStratified:
		return "density"
	}
	return fmt.Sprintf("heuristic(%d)", h)
}

// Reorder reorders b in place with the chosen heuristic. The result is
// deterministic in (heuristic, seed).
func Reorder(b *particle.Buffer, h Heuristic, seed int64) {
	switch h {
	case Random:
		Shuffle(b, seed)
	case DensityStratified:
		Stratify(b, geom.I3(8, 8, 8), seed)
	default:
		panic(fmt.Sprintf("lod: unknown heuristic %d", h))
	}
}

// Particles is what a reorder heuristic looks at: how many there are and,
// for the density heuristic, where. A write's aggregate (*particle.Rows)
// and a caller's *particle.Buffer both are.
type Particles interface {
	Len() int
	Position(i int) geom.Vec3
	Bounds() geom.Box
}

// Permutation returns the reorder permutation of the chosen heuristic
// without applying it: position i of the LOD order holds the particle
// that is at perm[i] now, so Reorder(b, h, seed) is equivalent to
// applying Permutation(b, h, seed). The file write fuses the reorder into
// its gather — the payload is taken in permuted order as it streams out,
// and the permuted aggregate is never materialized. A nil result (fewer
// than two particles) means the order is already final. The result is
// drawn from particle.Ints: the caller may return it there once done.
func Permutation(ps Particles, h Heuristic, seed int64) []int {
	if ps.Len() < 2 {
		return nil
	}
	switch h {
	case Random:
		return shufflePerm(ps.Len(), seed)
	case DensityStratified:
		return stratifyPerm(ps, geom.I3(8, 8, 8), seed)
	default:
		panic(fmt.Sprintf("lod: unknown heuristic %d", h))
	}
}

// Shuffle applies a seeded Fisher–Yates shuffle to the buffer. This is
// the paper's random reshuffling: the expected composition of any prefix
// matches the global particle distribution. The shuffle is run on an
// index array and applied column-by-column (see ApplyPermutation); the
// swap sequence is the same one an in-place element shuffle would use, so
// results are bit-identical to shuffling the buffer directly.
func Shuffle(b *particle.Buffer, seed int64) {
	if b.Len() < 2 {
		return
	}
	ApplyPermutation(b, shufflePerm(b.Len(), seed))
}

// rands holds the shuffles' generators. A source is 4.9 KB and reseeding
// one replays the sequence a new source of that seed makes, so a write
// step reseeds a pooled generator instead of building one per file.
var rands = particle.Pool[*rand.Rand]{New: func() *rand.Rand { return rand.New(rand.NewSource(0)) }}

func seeded(seed int64) *rand.Rand {
	r := rands.Get()
	r.Seed(seed)
	return r
}

// shufflePerm is the Fisher–Yates index permutation behind Shuffle.
func shufflePerm(n int, seed int64) []int {
	r := seeded(seed)
	defer rands.Put(r)
	perm := particle.Ints.Get(n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// Stratify reorders the buffer in place so that particles are emitted
// round-robin over the cells of a dims grid spanning the buffer's
// bounds; ties within a cell are pre-shuffled with the seed. Prefixes of
// the result cover every occupied cell before revisiting any, which for
// highly clustered data yields more even low-level coverage than Random.
func Stratify(b *particle.Buffer, dims geom.Idx3, seed int64) {
	if b.Len() < 2 {
		return
	}
	ApplyPermutation(b, stratifyPerm(b, dims, seed))
}

// stratifyPerm is the round-robin-over-bins index permutation behind
// Stratify.
func stratifyPerm(b Particles, dims geom.Idx3, seed int64) []int {
	n := b.Len()
	bounds := b.Bounds()
	// Inflate the upper face slightly so the max particle falls inside
	// the half-open grid.
	sz := bounds.Size()
	eps := 1e-9 * (sz.X + sz.Y + sz.Z + 1)
	bounds.Hi = bounds.Hi.Add(geom.V3(eps, eps, eps))
	// Far from the origin eps is below the coordinates' precision, and an
	// axis the particles are flat on would stay empty: give it one step.
	for axis := 0; axis < 3; axis++ {
		if lo := bounds.Lo.Comp(axis); bounds.Hi.Comp(axis) <= lo {
			bounds.Hi = bounds.Hi.WithComp(axis, math.Nextafter(lo, math.Inf(1)))
		}
	}
	g := geom.NewGrid(bounds, dims)

	cells := make([][]int, g.Cells())
	for i := 0; i < n; i++ {
		c := g.LocateLinear(b.Position(i))
		cells[c] = append(cells[c], i)
	}
	r := seeded(seed)
	defer rands.Put(r)
	for _, members := range cells {
		r.Shuffle(len(members), func(i, j int) {
			members[i], members[j] = members[j], members[i]
		})
	}
	perm := particle.Ints.Get(n)[:0]
	for round := 0; len(perm) < n; round++ {
		for _, members := range cells {
			if round < len(members) {
				perm = append(perm, members[round])
			}
		}
	}
	return perm
}

// ApplyPermutation reorders b so that the particle that was at perm[i]
// ends up at position i. perm must be a permutation of [0, b.Len()).
// It is a thin wrapper over the particle.Buffer.Permute kernel: a
// column-by-column gather, not a per-element Swap walk — Swap touches
// every field of both particles per exchange, which for a wide schema
// means a strided cache miss per field per swap.
func ApplyPermutation(b *particle.Buffer, perm []int) {
	b.Permute(perm)
}
