package geom

import "fmt"

// Grid is a rectilinear partitioning of a domain box into Dims.X × Dims.Y
// × Dims.Z equal axis-aligned cells. It models both the simulation's
// domain decomposition (one cell per rank patch) and the paper's
// aggregation-grid (one cell per aggregation partition).
type Grid struct {
	Domain Box
	Dims   Idx3
}

// NewGrid builds a grid over domain with the given cell counts. It panics
// on non-positive dims or an empty domain, which always indicates a
// programming error in the caller.
func NewGrid(domain Box, dims Idx3) Grid {
	if dims.X <= 0 || dims.Y <= 0 || dims.Z <= 0 {
		panic(fmt.Sprintf("geom: grid dims must be positive, got %v", dims))
	}
	if domain.IsEmpty() {
		panic(fmt.Sprintf("geom: grid domain must be non-empty, got %v", domain))
	}
	return Grid{Domain: domain, Dims: dims}
}

// Cells returns the total number of cells.
func (g Grid) Cells() int { return g.Dims.Volume() }

// CellSize returns the per-axis extent of a single cell.
func (g Grid) CellSize() Vec3 {
	s := g.Domain.Size()
	return Vec3{s.X / float64(g.Dims.X), s.Y / float64(g.Dims.Y), s.Z / float64(g.Dims.Z)}
}

// CellBox returns the box of the cell at integer coordinate idx. The last
// cell along each axis is closed at the domain boundary so that the cells
// exactly tile the domain (no particle on the upper domain face is lost to
// rounding).
func (g Grid) CellBox(idx Idx3) Box {
	cs := g.CellSize()
	lo := g.Domain.Lo.Add(Vec3{cs.X * float64(idx.X), cs.Y * float64(idx.Y), cs.Z * float64(idx.Z)})
	hi := g.Domain.Lo.Add(Vec3{cs.X * float64(idx.X+1), cs.Y * float64(idx.Y+1), cs.Z * float64(idx.Z+1)})
	// Snap the outermost faces to the exact domain bounds to avoid
	// floating-point gaps at the boundary.
	if idx.X == g.Dims.X-1 {
		hi.X = g.Domain.Hi.X
	}
	if idx.Y == g.Dims.Y-1 {
		hi.Y = g.Domain.Hi.Y
	}
	if idx.Z == g.Dims.Z-1 {
		hi.Z = g.Domain.Hi.Z
	}
	return Box{Lo: lo, Hi: hi}
}

// CellBoxLinear returns the box of the cell with row-major linear index i.
func (g Grid) CellBoxLinear(i int) Box { return g.CellBox(Unlinear(i, g.Dims)) }

// Locate returns the integer coordinate of the cell containing p.
// Points on the upper domain boundary are clamped into the last cell, so
// every point of the closed domain has an owner cell.
func (g Grid) Locate(p Vec3) Idx3 {
	l := g.Locator()
	return l.Locate(p)
}

// LocateLinear returns the row-major linear cell index containing p.
func (g Grid) LocateLinear(p Vec3) int {
	l := g.Locator()
	return l.LocateLinear(p)
}

// Locator is a grid that locates many points: the domain corner, the
// cell size and the dims taken out of the grid once, in calls the
// compiler inlines into the caller's loop. Grid.Locate and
// Grid.LocateLinear are a Locator's.
type Locator struct {
	lo, cs Vec3
	top    Idx3 // the last cell: Dims - 1 kept, so that LocateLinear inlines
	nx, ny int
}

// Locator returns the grid's Locator.
func (g Grid) Locator() Locator {
	return Locator{lo: g.Domain.Lo, cs: g.CellSize(), top: g.Dims.Add(Idx3{-1, -1, -1}), nx: g.Dims.X, ny: g.Dims.Y}
}

// Locate is Grid.Locate.
func (l *Locator) Locate(p Vec3) Idx3 {
	return Idx3{
		X: min(max(int((p.X-l.lo.X)/l.cs.X), 0), l.top.X),
		Y: min(max(int((p.Y-l.lo.Y)/l.cs.Y), 0), l.top.Y),
		Z: min(max(int((p.Z-l.lo.Z)/l.cs.Z), 0), l.top.Z),
	}
}

// LocateLinear is Grid.LocateLinear.
func (l *Locator) LocateLinear(p Vec3) int {
	c := l.Locate(p)
	return c.X + l.nx*(c.Y+l.ny*c.Z)
}

// CoarsenBy groups the grid's cells into super-cells of factor f per axis,
// producing the aggregation-grid of the paper: an aggregation partition
// covers f.X × f.Y × f.Z simulation patches. Each axis factor must divide
// the corresponding dimension (the paper's "aligned" requirement:
// partition size is an integer multiple of the per-process patch size).
func (g Grid) CoarsenBy(f Idx3) (Grid, error) {
	if f.X <= 0 || f.Y <= 0 || f.Z <= 0 {
		return Grid{}, fmt.Errorf("geom: coarsen factor must be positive, got %v", f)
	}
	if g.Dims.X%f.X != 0 || g.Dims.Y%f.Y != 0 || g.Dims.Z%f.Z != 0 {
		return Grid{}, fmt.Errorf("geom: coarsen factor %v does not divide grid dims %v", f, g.Dims)
	}
	return Grid{Domain: g.Domain, Dims: g.Dims.Div(f)}, nil
}

// CellOfCell returns, for a coarse grid produced by CoarsenBy(f), the
// coarse-cell coordinate owning fine cell idx.
func CellOfCell(idx, f Idx3) Idx3 { return idx.Div(f) }

// OverlappingCells returns the linear indices of all cells whose boxes
// intersect q, in row-major order. This is the spatial-metadata query
// primitive used by readers.
func (g Grid) OverlappingCells(q Box) []int {
	if !q.Intersects(g.Domain) {
		return nil
	}
	l := g.Locator()
	loIdx, hiIdx := l.Locate(q.Lo), l.Locate(q.Hi)
	var out []int
	for z := loIdx.Z; z <= hiIdx.Z; z++ {
		for y := loIdx.Y; y <= hiIdx.Y; y++ {
			for x := loIdx.X; x <= hiIdx.X; x++ {
				idx := Idx3{x, y, z}
				if g.CellBox(idx).Intersects(q) {
					out = append(out, idx.Linear(g.Dims))
				}
			}
		}
	}
	return out
}

func (g Grid) String() string { return fmt.Sprintf("grid %v over %v", g.Dims, g.Domain) }
