package geom

import "fmt"

// Box is an axis-aligned box [Lo, Hi). The half-open convention matches
// the paper's aggregation partitions: a particle sitting exactly on a
// shared face belongs to exactly one partition, so the partitions tile the
// domain without overlap and every particle has a unique owner.
type Box struct {
	Lo, Hi Vec3
}

// NewBox returns the box spanning [lo, hi). It does not validate ordering;
// use IsValid for that.
func NewBox(lo, hi Vec3) Box { return Box{Lo: lo, Hi: hi} }

// UnitBox returns the unit cube [0,1)^3.
func UnitBox() Box { return Box{Lo: Vec3{}, Hi: Vec3{1, 1, 1}} }

// EmptyBox returns a canonical empty box suitable as the identity for
// Union: Lo = +inf sentinel-ish via inverted bounds.
func EmptyBox() Box {
	const big = 1e308
	return Box{Lo: Vec3{big, big, big}, Hi: Vec3{-big, -big, -big}}
}

// IsValid reports whether Lo <= Hi on all axes.
func (b Box) IsValid() bool {
	return b.Lo.X <= b.Hi.X && b.Lo.Y <= b.Hi.Y && b.Lo.Z <= b.Hi.Z
}

// IsEmpty reports whether the box has no volume (any axis degenerate or
// inverted).
func (b Box) IsEmpty() bool {
	return b.Lo.X >= b.Hi.X || b.Lo.Y >= b.Hi.Y || b.Lo.Z >= b.Hi.Z
}

// Size returns the per-axis extent Hi - Lo.
func (b Box) Size() Vec3 { return b.Hi.Sub(b.Lo) }

// Volume returns the product of the extents, or 0 for empty boxes.
func (b Box) Volume() float64 {
	if b.IsEmpty() {
		return 0
	}
	s := b.Size()
	return s.X * s.Y * s.Z
}

// Center returns the midpoint of the box.
func (b Box) Center() Vec3 { return b.Lo.Add(b.Hi).Mul(0.5) }

// Contains reports whether p lies inside the half-open box [Lo, Hi).
func (b Box) Contains(p Vec3) bool {
	return p.X >= b.Lo.X && p.X < b.Hi.X &&
		p.Y >= b.Lo.Y && p.Y < b.Hi.Y &&
		p.Z >= b.Lo.Z && p.Z < b.Hi.Z
}

// ContainsClosed reports whether p lies inside the closed box [Lo, Hi].
// Metadata bounding boxes computed from particle positions are closed:
// the max particle sits exactly on Hi.
func (b Box) ContainsClosed(p Vec3) bool {
	return p.X >= b.Lo.X && p.X <= b.Hi.X &&
		p.Y >= b.Lo.Y && p.Y <= b.Hi.Y &&
		p.Z >= b.Lo.Z && p.Z <= b.Hi.Z
}

// ContainsBox reports whether inner lies fully inside b (half-open on
// both; an inner box sharing b's Hi face still counts as contained).
func (b Box) ContainsBox(inner Box) bool {
	return inner.Lo.X >= b.Lo.X && inner.Hi.X <= b.Hi.X &&
		inner.Lo.Y >= b.Lo.Y && inner.Hi.Y <= b.Hi.Y &&
		inner.Lo.Z >= b.Lo.Z && inner.Hi.Z <= b.Hi.Z
}

// Intersects reports whether b and o share any volume. Touching faces do
// not count as intersection under the half-open convention.
func (b Box) Intersects(o Box) bool {
	return b.Lo.X < o.Hi.X && o.Lo.X < b.Hi.X &&
		b.Lo.Y < o.Hi.Y && o.Lo.Y < b.Hi.Y &&
		b.Lo.Z < o.Hi.Z && o.Lo.Z < b.Hi.Z
}

// Touches reports whether the closed boxes b and o share a point: faces
// that meet count. An inverted box, or a NaN coordinate, touches nothing.
func (b Box) Touches(o Box) bool {
	return b.Lo.X <= o.Hi.X && o.Lo.X <= b.Hi.X &&
		b.Lo.Y <= o.Hi.Y && o.Lo.Y <= b.Hi.Y &&
		b.Lo.Z <= o.Hi.Z && o.Lo.Z <= b.Hi.Z
}

// Intersect returns the overlap of b and o (possibly empty).
func (b Box) Intersect(o Box) Box {
	return Box{Lo: b.Lo.Max(o.Lo), Hi: b.Hi.Min(o.Hi)}
}

// Union returns the smallest box containing both b and o. Empty operands
// are treated as the identity.
func (b Box) Union(o Box) Box {
	if b.IsEmpty() && !b.IsValid() {
		return o
	}
	if o.IsEmpty() && !o.IsValid() {
		return b
	}
	return Box{Lo: b.Lo.Min(o.Lo), Hi: b.Hi.Max(o.Hi)}
}

// Extend grows the box to include p.
func (b Box) Extend(p Vec3) Box {
	return Box{Lo: b.Lo.Min(p), Hi: b.Hi.Max(p)}
}

// Dist returns the Euclidean distance from p to the closest point of the
// box (0 when p is inside). A spatial router uses it to order shards by
// how near their region comes to a query point: no particle of a shard
// can be closer to p than the shard's box.
func (b Box) Dist(p Vec3) float64 {
	dx := axisDist(p.X, b.Lo.X, b.Hi.X)
	dy := axisDist(p.Y, b.Lo.Y, b.Hi.Y)
	dz := axisDist(p.Z, b.Lo.Z, b.Hi.Z)
	return Vec3{X: dx, Y: dy, Z: dz}.Len()
}

// axisDist is the 1D distance from x to the interval [lo, hi].
func axisDist(x, lo, hi float64) float64 {
	switch {
	case x < lo:
		return lo - x
	case x > hi:
		return x - hi
	default:
		return 0
	}
}

func (b Box) String() string { return fmt.Sprintf("[%v .. %v]", b.Lo, b.Hi) }
