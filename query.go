package spio

import (
	"spio/internal/geom"
	"spio/internal/render"
)

// Analysis kernels (the region-based queries the paper's layout serves:
// nearest-neighbour search, stencil halos, density estimation). Each is a
// method of every Queryable; these are the same reads of a local Dataset.

// KNN returns the k particles nearest to p (nearest first) and their
// distances, reading only the files near p.
func KNN(ds *Dataset, p Vec3, k int) (*Buffer, []float64, ReadStats, error) { return ds.KNN(p, k) }

// Halo reads a patch's particles plus the ghost layer within `halo` of
// it, separately — the stencil-operation access pattern.
func Halo(ds *Dataset, patch Box, halo float64, opts QueryOptions) (own, ghost *Buffer, st ReadStats, err error) {
	return ds.Halo(patch, halo, opts)
}

// DensityGrid estimates per-cell particle counts over the domain from
// the first `levels` LOD levels (levels <= 0 is exact), scaled by the
// sampling fraction, which is also returned.
func DensityGrid(ds *Dataset, dims Idx3, levels, readers int) ([]float64, float64, ReadStats, error) {
	return ds.DensityGrid(dims, levels, readers)
}

// Visualization utilities (the Fig. 9 splat renderer).
type (
	// Image is a grayscale float image in [0, 1].
	Image = render.Image
	// RenderOptions configures Render.
	RenderOptions = render.Options
)

// Render splats particles into a grayscale image by orthographic
// projection of the domain. Write the result with Image.WritePGM.
func Render(buf *Buffer, domain Box, opts RenderOptions) *Image {
	return render.Render(buf, geom.Box(domain), opts)
}

// ImagePSNR returns the peak signal-to-noise ratio (dB) of b against
// reference a.
func ImagePSNR(a, b *Image) (float64, error) { return render.PSNR(a, b) }
