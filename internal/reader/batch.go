package reader

import (
	"spio/internal/format"
	"spio/internal/geom"
	"spio/internal/particle"
)

// QueryBoxes answers several box queries in one pass: every data file
// intersecting any of the boxes is opened and read exactly once, and its
// particles are distributed to every query box containing them. For a
// tiled renderer issuing one query per tile this turns
// tiles×files-per-tile opens into distinct-files opens.
func (d *Dataset) QueryBoxes(qs []geom.Box, opts Options) ([]*particle.Buffer, Stats, error) {
	var st Stats
	proj, err := d.meta.Schema.ProjectOnto(opts.Fields)
	if err != nil {
		return nil, st, err
	}
	filters := make([]*particle.BoxFilter, len(qs))
	for i, q := range qs {
		filters[i] = particle.NewBoxFilter(d.meta.Schema, proj, q)
		defer filters[i].Release() // on success the records have been handed out by then
	}

	// File -> interested queries.
	type hit struct {
		entry   *format.FileEntry
		queries []int
	}
	var hits []hit
	index := make(map[string]int)
	for qi, q := range qs {
		for _, e := range d.meta.FilesIntersecting(q) {
			hi, ok := index[e.Name]
			if !ok {
				hi = len(hits)
				index[e.Name] = hi
				hits = append(hits, hit{entry: e})
			}
			hits[hi].queries = append(hits[hi].queries, qi)
		}
	}

	// Each chunk is looked at by several boxes, so the scan selects
	// nothing and every filter selects for itself.
	var sel []int32
	for _, h := range hits {
		fst, err := d.scanFile(h.entry, opts, proj, nil, func(recs []byte, _ []int32) error {
			for _, qi := range h.queries {
				sel = filters[qi].Select(sel[:0], recs)
				_ = filters[qi].Take(recs, sel) // a filter never fails
			}
			return nil
		})
		if err != nil {
			return nil, st, err
		}
		st.Add(fst)
	}
	outs := make([]*particle.Buffer, len(qs))
	for i, f := range filters {
		outs[i] = f.Buffer()
		st.ParticlesKept += int64(outs[i].Len())
	}
	return outs, st, nil
}
