// Package geom provides the small geometric vocabulary used throughout
// spio: 3D points, axis-aligned boxes, and rectilinear grids imposed on a
// simulation domain. Everything is double precision to match the particle
// position representation used by the paper's Uintah-style workloads.
package geom

import (
	"fmt"
	"math"
)

// Vec3 is a point or extent in 3D space.
type Vec3 struct {
	X, Y, Z float64
}

// V3 is a convenience constructor for Vec3.
func V3(x, y, z float64) Vec3 { return Vec3{x, y, z} }

// Add returns v + w component-wise.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w component-wise.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Mul returns the component-wise scaling of v by s.
func (v Vec3) Mul(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// MulV returns the component-wise product v * w.
func (v Vec3) MulV(w Vec3) Vec3 { return Vec3{v.X * w.X, v.Y * w.Y, v.Z * w.Z} }

// Div returns the component-wise quotient v / w.
func (v Vec3) Div(w Vec3) Vec3 { return Vec3{v.X / w.X, v.Y / w.Y, v.Z / w.Z} }

// Min returns the component-wise minimum of v and w.
func (v Vec3) Min(w Vec3) Vec3 {
	return Vec3{math.Min(v.X, w.X), math.Min(v.Y, w.Y), math.Min(v.Z, w.Z)}
}

// Max returns the component-wise maximum of v and w.
func (v Vec3) Max(w Vec3) Vec3 {
	return Vec3{math.Max(v.X, w.X), math.Max(v.Y, w.Y), math.Max(v.Z, w.Z)}
}

// Dot returns the dot product of v and w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Len returns the Euclidean norm of v.
func (v Vec3) Len() float64 { return math.Sqrt(v.Dot(v)) }

// Dist returns the Euclidean distance between v and w.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Len() }

// Comp returns the axis-th component (0 = X, 1 = Y, 2 = Z).
func (v Vec3) Comp(axis int) float64 {
	switch axis {
	case 0:
		return v.X
	case 1:
		return v.Y
	case 2:
		return v.Z
	}
	panic(fmt.Sprintf("geom: invalid axis %d", axis))
}

// WithComp returns a copy of v with the axis-th component set to x.
func (v Vec3) WithComp(axis int, x float64) Vec3 {
	switch axis {
	case 0:
		v.X = x
	case 1:
		v.Y = x
	case 2:
		v.Z = x
	default:
		panic(fmt.Sprintf("geom: invalid axis %d", axis))
	}
	return v
}

// IsFinite reports whether all components are finite numbers.
func (v Vec3) IsFinite() bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}

func (v Vec3) String() string { return fmt.Sprintf("(%g, %g, %g)", v.X, v.Y, v.Z) }

// Idx3 is an integer coordinate in a 3D lattice, used to address
// simulation patches and aggregation partitions.
type Idx3 struct {
	X, Y, Z int
}

// I3 is a convenience constructor for Idx3.
func I3(x, y, z int) Idx3 { return Idx3{x, y, z} }

// Add returns i + j component-wise.
func (i Idx3) Add(j Idx3) Idx3 { return Idx3{i.X + j.X, i.Y + j.Y, i.Z + j.Z} }

// Mul returns the component-wise product i * j.
func (i Idx3) Mul(j Idx3) Idx3 { return Idx3{i.X * j.X, i.Y * j.Y, i.Z * j.Z} }

// Div returns the component-wise (truncated) quotient i / j.
func (i Idx3) Div(j Idx3) Idx3 { return Idx3{i.X / j.X, i.Y / j.Y, i.Z / j.Z} }

// Volume returns X*Y*Z.
func (i Idx3) Volume() int { return i.X * i.Y * i.Z }

// Comp returns the axis-th component (0 = X, 1 = Y, 2 = Z).
func (i Idx3) Comp(axis int) int {
	switch axis {
	case 0:
		return i.X
	case 1:
		return i.Y
	case 2:
		return i.Z
	}
	panic(fmt.Sprintf("geom: invalid axis %d", axis))
}

func (i Idx3) String() string { return fmt.Sprintf("%dx%dx%d", i.X, i.Y, i.Z) }

// Linear returns the row-major linear index of i within dims, with X
// fastest: idx = x + dims.X*(y + dims.Y*z). Panics if i is out of range.
func (i Idx3) Linear(dims Idx3) int {
	if i.X < 0 || i.X >= dims.X || i.Y < 0 || i.Y >= dims.Y || i.Z < 0 || i.Z >= dims.Z {
		panic(fmt.Sprintf("geom: index %v out of range %v", i, dims))
	}
	return i.X + dims.X*(i.Y+dims.Y*i.Z)
}

// Unlinear inverts Linear for the given dims.
func Unlinear(idx int, dims Idx3) Idx3 {
	if idx < 0 || idx >= dims.Volume() {
		panic(fmt.Sprintf("geom: linear index %d out of range %v", idx, dims))
	}
	x := idx % dims.X
	idx /= dims.X
	y := idx % dims.Y
	z := idx / dims.Y
	return Idx3{x, y, z}
}
