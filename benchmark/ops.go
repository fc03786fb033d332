package main

import (
	"fmt"
	"math"
	"time"

	"spio"
)

// answer is everything one op returned to its client.
type answer struct {
	bufs    []*spio.Buffer // box, KNN: one; halo: own, ghost; stream: one per level
	dists   []float64      // KNN
	counts  []float64      // density
	frac    float64        // density sampling fraction
	partial bool
	// firstLevel is the time to the first level of a stream.
	firstLevel time.Duration
}

// summary is the part of an answer a measured pass compares after the
// op's timer stops: particle (or cell) count, an order-independent
// checksum of every returned byte, and the user bytes delivered.
type summary struct {
	n         int64
	sum       uint64
	userBytes int64
}

func (s summary) matches(o summary) bool { return s.n == o.n && s.sum == o.sum }

// execOp sends one op over a client connection. Spans go to tr (nil in
// untraced passes) under parent.
func execOp(ds *spio.RemoteDataset, o *op, tr *tracer, parent, opID int) (answer, error) {
	var a answer
	switch o.kind {
	case kindBox:
		sp := tr.begin("server.QueryBox", parent, opID)
		buf, st, err := ds.QueryBox(o.box, spio.QueryOptions{})
		tr.end(sp)
		if err != nil {
			return a, err
		}
		a.bufs, a.partial = []*spio.Buffer{buf}, st.Partial
	case kindKNN:
		sp := tr.begin("server.KNN", parent, opID)
		buf, dists, st, err := ds.KNN(o.at, knnK)
		tr.end(sp)
		if err != nil {
			return a, err
		}
		a.bufs, a.dists, a.partial = []*spio.Buffer{buf}, dists, st.Partial
	case kindHalo:
		sp := tr.begin("server.Halo", parent, opID)
		own, ghost, st, err := ds.Halo(o.box, haloWidth, spio.QueryOptions{})
		tr.end(sp)
		if err != nil {
			return a, err
		}
		a.bufs, a.partial = []*spio.Buffer{own, ghost}, st.Partial
	case kindDensity:
		sp := tr.begin("server.DensityGrid", parent, opID)
		counts, frac, st, err := ds.DensityGrid(spio.I3(densityDim, densityDim, densityDim), lodLevels, lodReaders)
		tr.end(sp)
		if err != nil {
			return a, err
		}
		a.counts, a.frac, a.partial = counts, frac, st.Partial
	case kindStream:
		t0 := time.Now()
		sp := tr.begin("server.ProgressiveBox", parent, opID)
		st, err := ds.ProgressiveBox(o.box, 0, lodReaders)
		tr.end(sp)
		if err != nil {
			return a, err
		}
		for l := 0; l < lodLevels; l++ {
			sp := tr.begin("server.NextLevel", parent, opID)
			buf, ok, err := st.NextLevel()
			tr.end(sp)
			if err != nil {
				return a, err
			}
			if !ok {
				break
			}
			if l == 0 {
				a.firstLevel = time.Since(t0)
			}
			a.bufs = append(a.bufs, buf)
		}
		sp = tr.begin("server.Cancel", parent, opID)
		err = st.Cancel()
		tr.end(sp)
		if err != nil {
			return a, err
		}
		a.partial = st.Stats().Partial
	default:
		return a, fmt.Errorf("unknown op kind %d", o.kind)
	}
	return a, nil
}

// summarise reduces an answer to its summary. scratch is reused between
// calls by one goroutine.
func (a *answer) summarise(kind opKind, scratch *[]uint64) summary {
	var s summary
	for i, b := range a.bufs {
		s.n += int64(b.Len())
		s.userBytes += b.Bytes()
		// The weight keeps own/ghost and the stream levels apart.
		s.sum += checksum(b, scratch) * uint64(2*i+1)
	}
	for i, d := range a.dists {
		s.sum += mix(math.Float64bits(d) + uint64(i))
	}
	if kind == kindDensity {
		s.n = int64(len(a.counts))
		s.userBytes = int64(8 * len(a.counts))
		for i, c := range a.counts {
			s.sum += mix(math.Float64bits(c) + uint64(i)*colKey(0))
		}
		s.sum += mix(math.Float64bits(a.frac))
	}
	return s
}

func mix(x uint64) uint64 {
	x ^= x >> 31
	x *= 0x9e3779b97f4a7c15
	x ^= x >> 29
	return x
}

func colKey(col int) uint64 { return (uint64(col)*2+1)*0xbf58476d1ce4e5b9 | 1 }

// checksum is an order-independent sum over the particles of b: every
// component of a particle is folded into one word, the word is mixed,
// and the mixed words are added. Reordering particles does not change
// it; changing, dropping or repeating any value does.
func checksum(b *spio.Buffer, scratch *[]uint64) uint64 {
	n := b.Len()
	if cap(*scratch) < n {
		*scratch = make([]uint64, n)
	}
	h := (*scratch)[:n]
	for i := range h {
		h[i] = 0
	}
	schema := b.Schema()
	col := 0
	for f := 0; f < schema.NumFields(); f++ {
		comps := schema.Field(f).Components
		switch schema.Field(f).Kind {
		case spio.Float64:
			v := b.Float64Field(f)
			for c := 0; c < comps; c++ {
				k := colKey(col)
				col++
				for i := range h {
					h[i] += math.Float64bits(v[i*comps+c]) * k
				}
			}
		case spio.Float32:
			v := b.Float32Field(f)
			for c := 0; c < comps; c++ {
				k := colKey(col)
				col++
				for i := range h {
					h[i] += uint64(math.Float32bits(v[i*comps+c])) * k
				}
			}
		}
	}
	var s uint64
	for _, x := range h {
		s += mix(x)
	}
	return s
}
