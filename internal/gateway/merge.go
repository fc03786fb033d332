package gateway

import (
	"cmp"
	"fmt"
	"sort"

	"spio/internal/geom"
	"spio/internal/particle"
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

// Answer scatter-gathers one query (server.Dataset): it checks req against
// the merged metadata as a single node would, routes it to the shards
// that can contribute, forwards the same request to each of them (fanOut)
// and merges their answers by one of three rules — concatenation for a
// box or halo read, a sum scaled once for a density grid, waves of
// candidates for KNN.
func (m *gwMount) Answer(req *rdr.Request) (*rdr.Answer, error) {
	if err := req.Check(m.merged); err != nil {
		return nil, err
	}
	// Every shard is told the per-file LOD budget of the merged dataset,
	// so its level boundaries (and therefore LOD-prefix reads) are those
	// of a single node serving the whole; a density grid comes back
	// unscaled, to be scaled once here.
	fwd := *req
	fwd.PerFileBase = rdr.PerFileBase(m.merged, req.Readers)
	switch req.Op {
	case rdr.OpQueryBox:
		return m.concat(&fwd, req.Box)
	case rdr.OpHalo:
		h := geom.V3(req.Halo, req.Halo, req.Halo)
		return m.concat(&fwd, geom.NewBox(req.Box.Lo.Sub(h), req.Box.Hi.Add(h)))
	case rdr.OpDensityGrid:
		fwd.Flags |= rdr.FlagRawDensity
		return m.density(&fwd, req.Flags&rdr.FlagRawDensity != 0)
	case rdr.OpKNN:
		return m.knn(&fwd)
	}
	return nil, fmt.Errorf("gateway: unknown op %d", req.Op)
}

// shardResult is one shard's contribution to a fanned-out query. The
// gateway is a client that sends its answers on, so a shard's answer
// arrives, is merged and leaves again as rows; no columns exist here. A
// result's rows are released by whoever drops the result, or moved into
// the merge.
type shardResult struct {
	idx int // shard mount index, for deterministic merge order
	a   *rdr.Answer
	err error
}

// fanOut forwards req to every target shard concurrently (each call
// bounded by the backend pools) and returns the results in shard mount
// order. A shard is asked under its own reference and, for KNN, for no
// more neighbours than it holds. Each goroutine sends exactly one result
// and exits; the collector drains all of them, so none can leak.
func (m *gwMount) fanOut(targets []*gwShard, req *rdr.Request) []shardResult {
	ch := make(chan shardResult, len(targets))
	for _, sh := range targets {
		go func(sh *gwShard) {
			m.metrics.fanout.Add(1)
			sreq := *req
			if sreq.Op == rdr.OpKNN {
				sreq.K = int(min(int64(sreq.K), sh.meta.Total))
			}
			res := shardResult{idx: sh.idx}
			res.err = m.withShard(sh, func(ds *server.RemoteDataset) (err error) {
				res.a, err = ds.Answer(&sreq)
				return err
			})
			if res.err != nil {
				m.metrics.shardErrors.Add(1)
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
// the failures to a partial-result flag, which the front counts.
func gatherErr(results []shardResult, st *rdr.Stats) error {
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
		st.Add(r.a.Stats)
	}
	if failed == len(results) && failed > 0 {
		return firstErr
	}
	if failed > 0 {
		st.Partial = true
	}
	return nil
}

// concat scatter-gathers a box or halo read: route by the box the read
// selects from, fan out, concatenate in shard mount order. Shard
// partitions are disjoint, so every particle arrives exactly once —
// ghosts at a shard boundary come from whichever shard owns them — and
// concatenation in metadata order reproduces the single-node result. The
// merge moves rows: the first shard's answer takes the others after it.
// A level of a progressive read is a NoFilter read of one level range,
// and this request is its barrier: the level leaves when every routed
// shard has answered.
func (m *gwMount) concat(req *rdr.Request, sel geom.Box) (*rdr.Answer, error) {
	targets := m.shardsFor(sel)
	if len(targets) == 0 {
		return m.emptyAnswer(req)
	}
	results := m.fanOut(targets, req)
	out := new(rdr.Answer)
	if err := gatherErr(results, &out.Stats); err != nil {
		return nil, err
	}
	for _, r := range results {
		if r.err != nil {
			continue
		}
		if out.Rows == nil {
			out.Rows, out.Ghost = r.a.Rows, r.a.Ghost
			continue
		}
		out.Rows.Append(r.a.Rows)
		if out.Ghost != nil {
			out.Ghost.Append(r.a.Ghost)
		}
	}
	return out, nil
}

// emptyAnswer is the zero-particle answer of a box or halo read that
// routes to no shard, honoring any field projection.
func (m *gwMount) emptyAnswer(req *rdr.Request) (*rdr.Answer, error) {
	proj, err := m.merged.Schema.ProjectOnto(req.Fields)
	if err != nil {
		return nil, err
	}
	schema := m.merged.Schema
	if proj != nil {
		schema = proj.Schema()
	}
	a := &rdr.Answer{Rows: particle.NewRows(schema)}
	if req.Op == rdr.OpHalo {
		a.Ghost = particle.NewRows(schema)
	}
	return a, nil
}

// density scatter-gathers a density grid. Every shard returns raw
// (unscaled) per-cell sample counts plus its sampled-particle count;
// the gateway sums both — integer-valued float64 adds, exact — and
// scales once against the merged total with the same arithmetic the
// local path uses (rdr.ScaleDensity), so the merged grid is
// bit-identical to the single-node answer. raw skips the final scaling
// (a nested gateway asked us for raw counts itself).
func (m *gwMount) density(req *rdr.Request, raw bool) (*rdr.Answer, error) {
	results := m.fanOut(m.shards, req)
	out := &rdr.Answer{Fraction: 1}
	if err := gatherErr(results, &out.Stats); err != nil {
		return nil, err
	}
	for _, r := range results {
		switch {
		case r.err != nil:
			continue
		case out.Floats == nil:
			out.Floats = r.a.Floats
		case len(r.a.Floats) != len(out.Floats):
			return nil, fmt.Errorf("gateway: shard %d returned %d density cells, want %d", r.idx, len(r.a.Floats), len(out.Floats))
		default:
			for i, v := range r.a.Floats {
				out.Floats[i] += v
			}
		}
		out.Sampled += r.a.Sampled
	}
	if !raw {
		out.Fraction = rdr.ScaleDensity(out.Floats, out.Sampled, m.merged.Total)
	}
	return out, nil
}

// knnCand is one merged KNN candidate: where it lives and how far it
// is.
type knnCand struct {
	res  int // index into the per-shard results
	i    int // record index within that shard's buffer
	dist float64
}

// knn scatter-gathers a k-nearest-neighbour search with wave-based
// pruning: shards are ordered by the distance from the query point to
// their region (geom.Box.Dist); the gateway queries the containing
// shards first, then widens to any shard whose region is nearer than
// the current k-th candidate — no particle of a farther shard can
// displace the current answer. Each shard returns its own top
// min(k, shardTotal), a superset of its contribution to the global top
// k, and the gateway re-ranks the union and gathers the winners out of
// the shards' rows.
func (m *gwMount) knn(req *rdr.Request) (*rdr.Answer, error) {
	p, k := req.Point, req.K
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

	var st rdr.Stats
	var results []shardResult
	defer func() {
		for _, r := range results {
			r.a.Release()
		}
	}()
	var cands []knnCand
	var firstErr error
	failed := 0
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
		for _, r := range m.fanOut(wave, req) {
			if r.err != nil {
				failed++
				if firstErr == nil {
					firstErr = r.err
				}
				continue
			}
			st.Add(r.a.Stats)
			ri := len(results)
			results = append(results, r)
			for i, d := range r.a.Floats {
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
		// Check let k particles in, so every shard asked has failed.
		return nil, cmp.Or(firstErr, errShardDown)
	}
	if failed > 0 {
		// A failed shard's particles are missing from the candidate set:
		// the answer may be incomplete, flag it instead of failing.
		st.Partial = true
	}
	n := min(k, len(cands))
	schema := results[cands[0].res].a.Rows.Schema()
	stride := schema.Stride()
	out := &rdr.Answer{Stats: st, Rows: particle.NewRows(schema), Floats: make([]float64, n)}
	out.Rows.Extend(n)
	out.Rows.Span(0, n, func(lo int, dst []byte) {
		for i := lo; len(dst) > 0; i, dst = i+1, dst[stride:] {
			c := cands[i]
			results[c.res].a.Rows.Gather(dst[:stride], nil, c.i, c.i+1)
			out.Floats[i] = c.dist
		}
	})
	return out, nil
}
