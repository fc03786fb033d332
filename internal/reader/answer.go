package reader

import (
	"fmt"
	"math"

	"spio/internal/format"
	"spio/internal/geom"
	"spio/internal/lod"
	"spio/internal/particle"
)

// The region queries the paper's layout serves (Section 3: "a range of
// standard analysis and visualization tasks are dependent on region-based
// queries, e.g.: nearest neighbour search, vector field integration,
// stencil operations") are four ops of one Request, answered with one
// Answer by whatever holds the data: a Dataset from its files, a server's
// client over the wire, a gateway over shards. Each op is read here once,
// in Dataset.Answer; the column methods a caller reads through are built
// once over that seam (QueryBox, ReadAll, KNN, Halo, DensityGrid).

// Request op codes.
const (
	OpQueryBox    = 2 // box read (QueryBox, and ReadAll: the domain, NoFilter)
	OpKNN         = 3 // k-nearest-neighbour search
	OpHalo        = 4 // patch + ghost-margin read
	OpDensityGrid = 5 // approximate density field from a LOD prefix
)

// FlagRawDensity asks a density-grid op for unscaled per-cell sample
// counts plus the sampled-particle count, so a gateway can sum shards and
// scale once against the merged total.
const FlagRawDensity uint8 = 1 << 0

// Request is one query: an op code plus the union of every op's
// parameters, of which each op reads its own. It is the one value a query
// travels as, from the client through a server and a gateway to the
// Dataset that answers it.
type Request struct {
	Op    uint8
	Box   geom.Box  // OpQueryBox's box, OpHalo's patch
	Point geom.Vec3 // OpKNN's query point
	K     int       // OpKNN's neighbour count
	Halo  float64   // OpHalo's margin
	Dims  geom.Idx3 // OpDensityGrid's cells per axis
	// Options is the read part: the level range, the readers, the filter,
	// the projection and the per-file base. A gateway sets PerFileBase to
	// the merged dataset's so every shard cuts the same level boundaries.
	Options
	// Flags carries the Flag* bits.
	Flags uint8
}

// Answer is what a query op answers with. Which parts are set follows
// from the op:
//
//   - OpQueryBox: Rows.
//   - OpKNN: Rows, the neighbours nearest first, and Floats, their
//     distances.
//   - OpHalo: Rows, the particles of the patch, and Ghost, those of the
//     margin.
//   - OpDensityGrid: Floats, the per-cell estimates, and Fraction, the
//     sampling fraction; under FlagRawDensity the unscaled counts,
//     Fraction 1 and Sampled, the number of particles counted.
//
// Particles travel as rows (see particle.Rows): the layout the filter
// found them in and the layout the wire sends, so an answer is never
// transposed on its way through a server. Whoever holds an answer owns
// its rows and ends them, with Release or by moving them on.
type Answer struct {
	Stats    Stats
	Rows     *particle.Rows
	Ghost    *particle.Rows
	Floats   []float64
	Fraction float64
	Sampled  int64
}

// Release gives the answer's rows back to their pool.
func (a *Answer) Release() {
	a.Rows.Release()
	a.Ghost.Release()
}

// Bytes returns the size of the answer's particles: what a server's
// response byte budget holds a query to.
func (a *Answer) Bytes() int64 {
	var n int64
	for _, r := range []*particle.Rows{a.Rows, a.Ghost} {
		if r != nil {
			n += r.Bytes()
		}
	}
	return n
}

// Check refuses a request that no dataset meta describes can answer: a
// KNN for no neighbours, for more than the dataset holds, or around a
// point that is not finite; a halo that is not at least 0; a density grid
// with an empty axis. A Dataset runs it before it reads, a gateway before
// it fans out: the one place a query's parameters are checked against a
// dataset (the wire's bounds are decodeRequest's, in internal/server).
func (r *Request) Check(meta *format.Meta) error {
	switch r.Op {
	case OpKNN:
		switch {
		case r.K <= 0:
			return fmt.Errorf("reader: k must be positive, got %d", r.K)
		case meta.Total < int64(r.K):
			return fmt.Errorf("reader: dataset holds %d particles, asked for %d", meta.Total, r.K)
		case !r.Point.IsFinite():
			return fmt.Errorf("reader: KNN point %v is not finite", r.Point)
		}
	case OpHalo:
		if !(r.Halo >= 0) {
			return fmt.Errorf("reader: halo must be at least 0, got %v", r.Halo)
		}
	case OpDensityGrid:
		if d := r.Dims; d.X <= 0 || d.Y <= 0 || d.Z <= 0 {
			return fmt.Errorf("reader: density grid dims must be positive, got %v", d)
		}
	}
	return nil
}

// Answer answers req from the dataset's files: a server serves a mounted
// dataset as itself. The caller owns the answer's rows.
func (d *Dataset) Answer(req *Request) (*Answer, error) {
	if err := req.Check(d.meta); err != nil {
		return nil, err
	}
	switch req.Op {
	case OpQueryBox:
		rows, st, err := d.boxRows(req.Box, req.Options)
		if err != nil {
			return nil, err
		}
		return &Answer{Stats: st, Rows: rows}, nil
	case OpKNN:
		return d.knn(req.Point, req.K)
	case OpHalo:
		return d.halo(req.Box, req.Halo, req.Options)
	case OpDensityGrid:
		return d.density(req.Dims, req.Options, req.Flags&FlagRawDensity != 0)
	}
	return nil, fmt.Errorf("reader: unknown op %d", req.Op)
}

// knn finds the k particles nearest p by growing a box around it until
// the box provably holds them: once k candidates exist and the k-th is no
// farther than the box's clearance, no closer particle can be outside.
// Each round ranks the candidates in the scan (particle.NearestFilter),
// so it holds k records however many the box holds.
func (d *Dataset) knn(p geom.Vec3, k int) (*Answer, error) {
	dom := d.meta.Domain
	// The clearance that reaches the domain's corner farthest from p puts
	// every particle inside the box, wherever p is; the domain's diagonal
	// does only for a p inside it.
	maxR := p.Sub(dom.Lo).Max(dom.Hi.Sub(p)).Len()
	// Initial radius from the mean density, with slack.
	r := 1.5 * math.Cbrt(float64(k)/float64(d.meta.Total)*dom.Volume()/(4.0/3.0*math.Pi))
	if !(r > 0) {
		r = maxR / 16
	}
	f := particle.NewNearestFilter(d.meta.Schema, p, k)
	for {
		q := geom.NewBox(p.Sub(geom.V3(r, r, r)), p.Add(geom.V3(r, r, r)))
		f.Reset(q)
		st, err := d.Scan(d.meta.FilesIntersecting(q), Options{}, f.Box(), f.Take)
		if err != nil {
			return nil, err
		}
		if f.Kth() <= r || (f.Seen() >= int64(k) && r >= maxR) {
			st.ParticlesKept = f.Seen() // the stats of the final pass
			rows, dists := f.Rows()
			return &Answer{Stats: st, Rows: rows, Floats: dists}, nil
		}
		if r >= maxR {
			return nil, fmt.Errorf("reader: exhausted domain with %d of %d neighbours", f.Seen(), k)
		}
		r *= 2
	}
}

// halo reads the particles of a patch and those within halo of it — the
// ghost layer a stencil operation needs — in one pass: the closed grown
// box selects, the half-open patch splits the selection into owned and
// ghost.
func (d *Dataset) halo(patch geom.Box, halo float64, opts Options) (*Answer, error) {
	h := geom.V3(halo, halo, halo)
	grown := geom.NewBox(patch.Lo.Sub(h), patch.Hi.Add(h))
	proj, err := d.meta.Schema.ProjectOnto(opts.Fields)
	if err != nil {
		return nil, err
	}
	f := particle.NewHaloFilter(d.meta.Schema, proj, grown, patch)
	st, err := d.Scan(d.meta.FilesIntersecting(grown), opts, f.Box(), f.Take)
	if err != nil {
		f.Release()
		return nil, err
	}
	own, ghost := f.Rows()
	st.ParticlesKept = int64(own.Len() + ghost.Len())
	return &Answer{Stats: st, Rows: own, Ghost: ghost}, nil
}

// density counts the particles of the LOD range opts selects per cell of
// a dims grid over the domain and scales the counts by the inverse
// sampling fraction; raw, it leaves them unscaled and reports the number
// sampled instead. A gateway asks its shards for raw counts, sums them
// and scales once against the merged total: scaling per shard and summing
// would both bias the estimate (shards sample at different effective
// fractions) and break bit-identity with the single-node answer.
func (d *Dataset) density(dims geom.Idx3, opts Options, raw bool) (*Answer, error) {
	grid := geom.NewGrid(d.meta.Domain, dims)
	counts := make([]float64, grid.Cells())
	// Positions are all a density needs: project onto them, so a
	// compressed block inflates its position plane alone, and count
	// straight from the record bytes.
	opts.Fields = []string{particle.PositionField}
	stride := d.meta.Schema.Stride()
	loc := grid.Locator()
	st, err := d.Scan(d.meta.AllFiles(), opts, nil, func(recs []byte, _ []int32) error {
		for off := 0; off < len(recs); off += stride {
			counts[loc.LocateLinear(particle.PositionAt(recs, off))]++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	st.ParticlesKept = st.ParticlesRead
	if raw {
		return &Answer{Stats: st, Floats: counts, Fraction: 1, Sampled: st.ParticlesRead}, nil
	}
	return &Answer{Stats: st, Floats: counts, Fraction: ScaleDensity(counts, st.ParticlesRead, d.meta.Total)}, nil
}

// ScaleDensity converts raw sample counts into density estimates in
// place: every cell is divided by the sampling fraction sampled/total.
// It returns the fraction. The arithmetic — one float64 division of the
// two counts, then one division per cell — is shared by the local and
// gateway paths so their results are bit-identical.
func ScaleDensity(counts []float64, sampled, total int64) float64 {
	frac := 1.0
	if total > 0 {
		frac = float64(sampled) / float64(total)
	}
	if frac > 0 {
		for i := range counts {
			counts[i] /= frac
		}
	}
	return frac
}

// Answerer is what answers a request: a Dataset from its files, a
// server's remote dataset over the wire. The column reads below are
// written once over it, and both expose them as methods.
type Answerer interface {
	Meta() *format.Meta
	Answer(req *Request) (*Answer, error)
}

// QueryBox reads the particles of ds intersecting q, consulting the
// metadata to open only intersecting files (Section 4: "any process
// making such reads simply uses the bounding box information stored in
// the metadata file to select exactly which file to read").
func QueryBox(ds Answerer, q geom.Box, opts Options) (*particle.Buffer, Stats, error) {
	a, err := ds.Answer(&Request{Op: OpQueryBox, Box: q, Options: opts})
	if err != nil {
		return nil, Stats{}, err
	}
	return a.Rows.Buffer(), a.Stats, nil
}

// ReadAll reads the whole of ds (optionally only some LOD levels).
func ReadAll(ds Answerer, opts Options) (*particle.Buffer, Stats, error) {
	opts.NoFilter = true
	return QueryBox(ds, ds.Meta().Domain, opts)
}

// KNN returns the k particles of ds nearest to p (nearest first) and
// their distances, reading only the files near p.
func KNN(ds Answerer, p geom.Vec3, k int) (*particle.Buffer, []float64, Stats, error) {
	a, err := ds.Answer(&Request{Op: OpKNN, Point: p, K: k})
	if err != nil {
		return nil, nil, Stats{}, err
	}
	return a.Rows.Buffer(), a.Floats, a.Stats, nil
}

// Halo reads the particles of a patch plus those within halo of it — the
// stencil-operation access pattern — and returns the owned and ghost
// particles separately.
func Halo(ds Answerer, patch geom.Box, halo float64, opts Options) (own, ghost *particle.Buffer, st Stats, err error) {
	a, err := ds.Answer(&Request{Op: OpHalo, Box: patch, Halo: halo, Options: opts})
	if err != nil {
		return nil, nil, st, err
	}
	return a.Rows.Buffer(), a.Ghost.Buffer(), a.Stats, nil
}

// DensityGrid estimates the particle count per cell of a dims grid over
// the domain from the first levels LOD levels (levels <= 0 reads
// everything: exact counts), scaled by the sampling fraction, which is
// also returned.
func DensityGrid(ds Answerer, dims geom.Idx3, levels, readers int) ([]float64, float64, Stats, error) {
	a, err := ds.Answer(&Request{Op: OpDensityGrid, Dims: dims, Options: Options{Levels: levels, Readers: readers}})
	if err != nil {
		return nil, 0, Stats{}, err
	}
	return a.Floats, a.Fraction, a.Stats, nil
}

// LevelCount returns the number of LOD levels a dataset described by meta
// exposes to nReaders readers (Section 5.4's l = log_S(total/(n·P))
// computation).
func LevelCount(meta *format.Meta, nReaders int) int {
	base := int64(max(nReaders, 1)) * int64(meta.LOD.BasePerReader)
	return lod.NumLevels(meta.Total, base, meta.LOD.Scale)
}
