package main

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"sync"

	"spio"
)

// oracle answers every op of S by brute force over the particles held in
// memory. Answers that depend on the stored level-of-detail order (the
// density sample and the stream levels) are taken from a plain local
// read of the files being served, and each of their particles is still
// compared with the in-memory original.
type oracle struct {
	d       *dataset
	local   *spio.Dataset
	idField int
	scratch []uint64
}

func newOracle(d *dataset, servedDir string) (*oracle, error) {
	local, err := spio.Open(servedDir)
	if err != nil {
		return nil, err
	}
	return &oracle{d: d, local: local, idField: d.schema.FieldIndex("id")}, nil
}

func (o *oracle) close() { _ = o.local.Close() } // read-only handle

// inBox lists the particles in the closed box q, the reader's predicate.
func (o *oracle) inBox(q spio.Box) []int {
	pos := o.d.all.Float64Field(0)
	var idx []int
	for i := 0; i < len(pos)/3; i++ {
		x, y, z := pos[3*i], pos[3*i+1], pos[3*i+2]
		if x >= q.Lo.X && x <= q.Hi.X && y >= q.Lo.Y && y <= q.Hi.Y && z >= q.Lo.Z && z <= q.Hi.Z {
			idx = append(idx, i)
		}
	}
	return idx
}

// answer computes what op must return.
func (o *oracle) answer(p *op) (answer, error) {
	all := o.d.all
	var a answer
	switch p.kind {
	case kindBox:
		a.bufs = []*spio.Buffer{all.Select(o.inBox(p.box))}
	case kindKNN:
		type cand struct {
			i int
			d float64
		}
		best := make([]cand, 0, knnK+1)
		for i := 0; i < all.Len(); i++ {
			d := p.at.Dist(all.Position(i))
			if len(best) == knnK && d >= best[knnK-1].d {
				continue
			}
			at := sort.Search(len(best), func(j int) bool { return best[j].d > d })
			best = append(best, cand{})
			copy(best[at+1:], best[at:])
			best[at] = cand{i, d}
			if len(best) > knnK {
				best = best[:knnK]
			}
		}
		idx := make([]int, len(best))
		for j, c := range best {
			idx[j] = c.i
			a.dists = append(a.dists, c.d)
		}
		a.bufs = []*spio.Buffer{all.Select(idx)}
	case kindHalo:
		h := spio.V3(haloWidth, haloWidth, haloWidth)
		var own, ghost []int
		for _, i := range o.inBox(spio.NewBox(p.box.Lo.Sub(h), p.box.Hi.Add(h))) {
			if p.box.Contains(all.Position(i)) {
				own = append(own, i)
			} else {
				ghost = append(ghost, i)
			}
		}
		a.bufs = []*spio.Buffer{all.Select(own), all.Select(ghost)}
	case kindDensity:
		counts, frac, _, err := spio.DensityGrid(o.local, spio.I3(densityDim, densityDim, densityDim), lodLevels, lodReaders)
		if err != nil {
			return a, err
		}
		a.counts, a.frac = counts, frac
	case kindStream:
		pr, err := o.local.Progressive(o.local.Meta().FilesIntersecting(p.box), lodReaders)
		if err != nil {
			return a, err
		}
		defer pr.Close()
		for l := 0; l < lodLevels; l++ {
			buf, ok, err := pr.NextLevel()
			if err != nil {
				return a, err
			}
			if !ok {
				break
			}
			if err := o.checkOriginals(buf); err != nil {
				return a, fmt.Errorf("local stream level %d: %w", l, err)
			}
			a.bufs = append(a.bufs, buf)
		}
	}
	return a, nil
}

// verifyPass checks every answer of a warm-up pass against an oracle
// over the files in servedDir and records in each op what later passes
// must return. It returns how many answers were wrong.
func verifyPass(d *dataset, servedDir string, ops []op, warm *passResult, logf func(string, ...any)) (int, error) {
	const workers = 2
	failed := make([]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			orc, err := newOracle(d, servedDir)
			if err != nil {
				errs[w] = err
				return
			}
			defer orc.close()
			for i := w; i < len(ops); i += workers {
				wrong, err := orc.verify(&ops[i], &warm.answers[i], warm.errs[i])
				if err != nil {
					errs[w] = err
					return
				}
				if wrong != nil {
					failed[w]++
					logf("warm-up op %d (%s): %v", i, kindNames[ops[i].kind], wrong)
				}
			}
		}(w)
	}
	wg.Wait()
	n := 0
	for w := range failed {
		n += failed[w]
		if errs[w] != nil {
			return n, errs[w]
		}
	}
	return n, nil
}

// verify computes the oracle's answer to p, records its summary as what
// every later pass must produce, and compares the client's full answer
// with it, byte for byte after a canonical sort by particle id. A
// mismatch is returned as wrong (a failed op); err is a harness failure.
func (o *oracle) verify(p *op, got *answer, gotErr error) (wrong, err error) {
	want, err := o.answer(p)
	if err != nil {
		return nil, fmt.Errorf("oracle %s: %w", kindNames[p.kind], err)
	}
	p.want = want.summarise(p.kind, &o.scratch)
	if gotErr != nil {
		return gotErr, nil
	}
	if got.partial {
		return fmt.Errorf("partial result"), nil
	}
	if len(got.bufs) != len(want.bufs) {
		return fmt.Errorf("got %d buffers, want %d", len(got.bufs), len(want.bufs)), nil
	}
	for i := range want.bufs {
		if g, w := got.bufs[i].Len(), want.bufs[i].Len(); g != w {
			return fmt.Errorf("buffer %d: got %d particles, want %d", i, g, w), nil
		}
		// For boxes and halos the oracle selects by ascending index,
		// which is id order already.
		wantBytes := want.bufs[i].Encode()
		if p.kind != kindBox && p.kind != kindHalo {
			wantBytes = o.canonical(want.bufs[i])
		}
		if !bytes.Equal(o.canonical(got.bufs[i]), wantBytes) {
			return fmt.Errorf("buffer %d: particles differ from the oracle's", i), nil
		}
	}
	if !slices.Equal(got.dists, want.dists) {
		return fmt.Errorf("KNN distances differ from the oracle's"), nil
	}
	if !slices.Equal(got.counts, want.counts) || got.frac != want.frac {
		return fmt.Errorf("density counts differ from the local read's"), nil
	}
	return nil, nil
}

// canonical returns the record encoding of b sorted by particle id.
func (o *oracle) canonical(b *spio.Buffer) []byte {
	ids := b.Float64Field(o.idField)
	idx := make([]int, b.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool { return ids[idx[x]] < ids[idx[y]] })
	out := make([]byte, b.Bytes())
	b.EncodeRecordsGather(out, idx)
	return out
}

// checkOriginals checks that every particle of b is, byte for byte, the
// in-memory particle with its id, and that none repeats.
func (o *oracle) checkOriginals(b *spio.Buffer) error {
	ids := b.Float64Field(o.idField)
	idx := make([]int, b.Len())
	seen := make(map[int]bool, b.Len())
	for i, id := range ids {
		g := int(id)
		if g < 0 || g >= o.d.all.Len() || float64(g) != id || seen[g] {
			return fmt.Errorf("particle %d has a bad or repeated id %v", i, id)
		}
		seen[g] = true
		idx[i] = g
	}
	if !bytes.Equal(b.Encode(), o.d.all.Select(idx).Encode()) {
		return fmt.Errorf("particles differ from the originals")
	}
	return nil
}
