package gateway

import (
	"fmt"
	"sort"

	"spio/internal/geom"
	"spio/internal/particle"
	"spio/internal/query"
	rdr "spio/internal/reader"
	"spio/internal/server"
)

// shardsFor computes the minimal shard set for a box query: exactly the
// shards with at least one file whose aggregation partition intersects
// the box — the same per-file metadata test a single node would run,
// lifted to routing. A NoFilter read opens the files its box intersects
// like any other (ReadAll's box is the domain), so it routes like any
// other: a level of a progressive read goes to the shards that hold it.
func (m *gwMount) shardsFor(box geom.Box) []*gwShard {
	var out []*gwShard
	for _, sh := range m.shards {
		if len(sh.meta.FilesIntersecting(box)) > 0 {
			out = append(out, sh)
		}
	}
	return out
}

// mergedBase is the per-file LOD budget of the merged dataset — what
// every shard must be told to use so level boundaries (and therefore
// LOD-prefix reads) are identical to a single node serving the whole.
func (m *gwMount) mergedBase(readers int) int64 {
	return rdr.PerFileBase(m.merged, readers)
}

// emptyResult builds the zero-particle answer for queries whose box
// intersects no shard, honoring any field projection.
func (m *gwMount) emptyResult(fields []string) (*particle.Rows, error) {
	proj, err := m.merged.Schema.ProjectOnto(fields)
	if err != nil {
		return nil, err
	}
	if proj != nil {
		return particle.NewRows(proj.Schema()), nil
	}
	return particle.NewRows(m.merged.Schema), nil
}

// shardResult is one shard's contribution to a fanned-out query. The
// gateway is a client that sends its answers on, so a shard's answer
// arrives, is merged and leaves again as rows; no columns exist here. A
// result's rows are released by whoever drops the result, or moved into
// the merge.
type shardResult struct {
	idx   int            // shard mount index, for deterministic merge order
	rows  *particle.Rows // box answer; KNN: the neighbours; halo: the owned particles
	extra *particle.Rows // halo ghosts
	dists []float64
	count int64 // raw-density sampled count
	st    rdr.Stats
	err   error
}

// fanOut runs fn against every target shard concurrently (each call
// bounded by the backend pools) and returns the results indexed like
// targets. Each goroutine sends exactly one result and exits; the
// collector drains all of them, so none can leak.
func (g *Gateway) fanOut(targets []*gwShard, fn func(sh *gwShard, ds *server.RemoteDataset) shardResult) []shardResult {
	ch := make(chan shardResult, len(targets))
	for _, sh := range targets {
		go func(sh *gwShard) {
			g.metrics.fanout.Add(1)
			var res shardResult
			err := g.withShard(sh, func(ds *server.RemoteDataset) error {
				res = fn(sh, ds)
				return res.err
			})
			res.idx = sh.idx
			res.err = err
			if err != nil {
				g.metrics.shardErrors.Add(1)
			}
			ch <- res
		}(sh)
	}
	out := make([]shardResult, len(targets))
	for i := range out {
		out[i] = <-ch
	}
	sort.Slice(out, func(a, b int) bool { return out[a].idx < out[b].idx })
	return out
}

// gatherErr folds fan-out failures into the partial-result contract:
// every shard failing fails the query; any shard succeeding degrades
// the failures to a partial-result flag.
func (g *Gateway) gatherErr(results []shardResult, st *rdr.Stats) error {
	var firstErr error
	failed := 0
	for _, r := range results {
		if r.err != nil {
			failed++
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		st.Add(r.st)
	}
	if failed == len(results) && failed > 0 {
		return firstErr
	}
	if failed > 0 {
		st.Partial = true
	}
	g.notePartial(st)
	return nil
}

// notePartial counts an answer going out with the partial-result flag.
func (g *Gateway) notePartial(st *rdr.Stats) {
	if st.Partial {
		g.metrics.partials.Add(1)
	}
}

// QueryBox scatter-gathers a box query: route, fan out, concatenate
// in shard mount order. Shard partitions are disjoint, so every
// particle arrives exactly once, and concatenation in metadata order
// reproduces the single-node result. The merge moves rows: the first
// shard's answer takes the others after it. A level of a progressive
// read is a NoFilter read of one level range, and this request is its
// barrier: the level leaves when every routed shard has answered.
func (m *gwMount) QueryBox(box geom.Box, opts rdr.Options) (*particle.Rows, rdr.Stats, error) {
	g := m.g
	var st rdr.Stats
	targets := m.shardsFor(box)
	if len(targets) == 0 {
		rows, err := m.emptyResult(opts.Fields)
		return rows, st, err
	}
	opts.PerFileBase = m.mergedBase(opts.Readers)
	results := g.fanOut(targets, func(sh *gwShard, ds *server.RemoteDataset) shardResult {
		rows, sst, err := ds.QueryBoxRows(box, opts)
		return shardResult{rows: rows, st: sst, err: err}
	})
	if err := g.gatherErr(results, &st); err != nil {
		return nil, st, err
	}
	var out *particle.Rows
	for _, r := range results {
		if r.err != nil {
			continue
		}
		if out == nil {
			out = r.rows
		} else {
			out.Append(r.rows)
		}
	}
	return out, st, nil
}

// Halo scatter-gathers a patch + ghost-margin read. Each shard splits
// its own particles into own/ghost against the same patch box; the
// partitions being disjoint means no particle appears on two shards, so
// plain concatenation de-duplicates by construction — ghosts at a shard
// boundary come from whichever shard owns them.
func (m *gwMount) Halo(patch geom.Box, halo float64, opts rdr.Options) (own, ghost *particle.Rows, st rdr.Stats, err error) {
	g := m.g
	if halo < 0 {
		return nil, nil, st, fmt.Errorf("query: negative halo %v", halo)
	}
	grown := geom.NewBox(
		patch.Lo.Sub(geom.V3(halo, halo, halo)),
		patch.Hi.Add(geom.V3(halo, halo, halo)),
	)
	targets := m.shardsFor(grown)
	if len(targets) == 0 {
		if own, err = m.emptyResult(opts.Fields); err != nil {
			return nil, nil, st, err
		}
		ghost, err = m.emptyResult(opts.Fields)
		return own, ghost, st, err
	}
	opts.PerFileBase = m.mergedBase(opts.Readers)
	results := g.fanOut(targets, func(sh *gwShard, ds *server.RemoteDataset) shardResult {
		o, gh, sst, err := ds.HaloRows(patch, halo, opts)
		return shardResult{rows: o, extra: gh, st: sst, err: err}
	})
	if err := g.gatherErr(results, &st); err != nil {
		return nil, nil, st, err
	}
	for _, r := range results {
		if r.err != nil {
			continue
		}
		if own == nil {
			own, ghost = r.rows, r.extra
		} else {
			own.Append(r.rows)
			ghost.Append(r.extra)
		}
	}
	return own, ghost, st, nil
}

// DensityGrid scatter-gathers a density grid. Every shard returns raw
// (unscaled) per-cell sample counts plus its sampled-particle count;
// the gateway sums both — integer-valued float64 adds, exact — and
// scales once against the merged total with the same arithmetic the
// local path uses (query.ScaleDensity), so the merged grid is
// bit-identical to the single-node answer. raw skips the final scaling
// (a nested gateway asked us for raw counts itself).
func (m *gwMount) DensityGrid(dims geom.Idx3, opts rdr.Options, raw bool) ([]float64, float64, int64, rdr.Stats, error) {
	g := m.g
	var st rdr.Stats
	opts.PerFileBase = m.mergedBase(opts.Readers)
	results := g.fanOut(m.shards, func(sh *gwShard, ds *server.RemoteDataset) shardResult {
		counts, sampled, sst, err := ds.DensityGridRaw(dims, opts)
		buf := shardResult{count: sampled, st: sst, err: err}
		buf.dists = counts // reuse the float slice slot
		return buf
	})
	if err := g.gatherErr(results, &st); err != nil {
		return nil, 0, 0, st, err
	}
	var counts []float64
	var sampled int64
	for _, r := range results {
		if r.err != nil {
			continue
		}
		if counts == nil {
			counts = r.dists
		} else {
			if len(r.dists) != len(counts) {
				return nil, 0, 0, st, fmt.Errorf("spiogate: shard %d returned %d density cells, want %d", r.idx, len(r.dists), len(counts))
			}
			for i, v := range r.dists {
				counts[i] += v
			}
		}
		sampled += r.count
	}
	if raw {
		return counts, 1, sampled, st, nil
	}
	frac := query.ScaleDensity(counts, sampled, m.merged.Total)
	return counts, frac, sampled, st, nil
}

// knnCand is one merged KNN candidate: where it lives and how far it
// is.
type knnCand struct {
	res  int // index into the per-shard results
	i    int // record index within that shard's buffer
	dist float64
}

// KNN scatter-gathers a k-nearest-neighbour search with wave-based
// pruning: shards are ordered by the distance from the query point to
// their region (geom.Box.Dist); the gateway queries the containing
// shards first, then widens to any shard whose region is nearer than
// the current k-th candidate — no particle of a farther shard can
// displace the current answer. Each shard returns its own top
// min(k, shardTotal), a superset of its contribution to the global top
// k, and the gateway re-ranks the union and gathers the winners out of
// the shards' rows.
func (m *gwMount) KNN(p geom.Vec3, k int) (*particle.Rows, []float64, rdr.Stats, error) {
	g := m.g
	var st rdr.Stats
	if k <= 0 {
		return nil, nil, st, fmt.Errorf("query: k must be positive, got %d", k)
	}
	if m.merged.Total < int64(k) {
		return nil, nil, st, fmt.Errorf("query: dataset holds %d particles, asked for %d", m.merged.Total, k)
	}
	order := make([]*gwShard, 0, len(m.shards))
	for _, sh := range m.shards {
		if sh.meta.Total > 0 {
			order = append(order, sh)
		}
	}
	dist := make(map[*gwShard]float64, len(order))
	for _, sh := range order {
		dist[sh] = sh.bounds.Dist(p)
	}
	sort.SliceStable(order, func(a, b int) bool { return dist[order[a]] < dist[order[b]] })

	var results []shardResult
	var cands []knnCand
	var firstErr error
	failed, queried := 0, 0
	next := 0
	for {
		var wave []*gwShard
		if len(cands) < k {
			// Still short of k: pull in the nearest unqueried shard, plus
			// every other shard whose region contains the point.
			for next < len(order) && (len(wave) == 0 || dist[order[next]] == 0) {
				wave = append(wave, order[next])
				next++
			}
		}
		if len(cands) >= k {
			// Have k candidates: only a shard whose region comes nearer
			// than the k-th distance can still change the answer.
			kth := cands[k-1].dist
			for next < len(order) && dist[order[next]] <= kth {
				wave = append(wave, order[next])
				next++
			}
		}
		if len(wave) == 0 {
			break
		}
		queried += len(wave)
		waveResults := g.fanOut(wave, func(sh *gwShard, ds *server.RemoteDataset) shardResult {
			kq := k
			if int64(kq) > sh.meta.Total {
				kq = int(sh.meta.Total)
			}
			rows, dists, sst, err := ds.KNNRows(p, kq)
			return shardResult{rows: rows, dists: dists, st: sst, err: err}
		})
		for _, r := range waveResults {
			if r.err != nil {
				failed++
				if firstErr == nil {
					firstErr = r.err
				}
				continue
			}
			st.Add(r.st)
			ri := len(results)
			results = append(results, r)
			for i, d := range r.dists {
				cands = append(cands, knnCand{res: ri, i: i, dist: d})
			}
		}
		// Deterministic re-rank: distance, then shard mount order, then
		// within-shard rank.
		sort.Slice(cands, func(a, b int) bool {
			ca, cb := cands[a], cands[b]
			if ca.dist != cb.dist {
				return ca.dist < cb.dist
			}
			if results[ca.res].idx != results[cb.res].idx {
				return results[ca.res].idx < results[cb.res].idx
			}
			return ca.i < cb.i
		})
	}
	if len(cands) == 0 {
		if firstErr != nil {
			return nil, nil, st, firstErr
		}
		return nil, nil, st, fmt.Errorf("query: dataset holds 0 particles, asked for %d", k)
	}
	if failed > 0 {
		// A failed shard's particles are missing from the candidate set:
		// the answer may be incomplete, flag it instead of failing.
		st.Partial = true
	}
	g.notePartial(&st)
	n := k
	if n > len(cands) {
		n = len(cands)
	}
	schema := results[cands[0].res].rows.Schema()
	stride := schema.Stride()
	out := particle.NewRows(schema)
	out.Extend(n)
	dists := make([]float64, n)
	out.Span(0, n, func(lo int, dst []byte) {
		for i := lo; len(dst) > 0; i, dst = i+1, dst[stride:] {
			c := cands[i]
			results[c.res].rows.Gather(dst[:stride], nil, c.i, c.i+1)
			dists[i] = c.dist
		}
	})
	for _, r := range results {
		r.rows.Release()
	}
	return out, dists, st, nil
}
