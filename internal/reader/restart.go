package reader

import (
	"fmt"

	"spio/internal/geom"
	"spio/internal/mpi"
	"spio/internal/particle"
)

// Restart is the checkpoint/restart read: every rank of a (possibly
// differently sized) job collectively loads the particles belonging to
// its patch of a new simDims decomposition. Because the on-disk layout
// is spatial and the metadata maps regions to files, each rank opens
// only the files intersecting its patch — no all-ranks broadcast of the
// full dataset, and no requirement that the restart job match the
// writer count (the flexibility Section 2.1 contrasts with HDF5
// sub-filing).
func Restart(c *mpi.Comm, dir string, domain geom.Box, simDims geom.Idx3) (*particle.Buffer, error) {
	if v := simDims.Volume(); v != c.Size() {
		return nil, fmt.Errorf("reader: restart dims %v cover %d patches, world has %d ranks", simDims, v, c.Size())
	}
	ds, err := Open(dir)
	if err != nil {
		return nil, err
	}
	grid := geom.NewGrid(domain, simDims)
	patch := grid.CellBox(geom.Unlinear(c.Rank(), simDims))
	buf, _, err := ds.QueryBox(patch, Options{})
	if err != nil {
		return nil, err
	}
	// Half-open patch ownership: drop particles the closed-box query
	// admitted on the upper faces unless this patch touches the domain
	// boundary there (the grid's boundary cells own their closed faces).
	var owned []int
	for i := 0; i < buf.Len(); i++ {
		if grid.Locate(buf.Position(i)).Linear(simDims) == c.Rank() {
			owned = append(owned, i)
		}
	}
	return buf.Select(owned), nil
}
