package format

import (
	"container/list"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"spio/internal/geom"
	"spio/internal/lod"
	"spio/internal/particle"
)

// scanProjected reads records [lo, hi) keeping the projected fields, the
// way a projected reader drives Scan.
func scanProjected(df *DataFile, lo, hi int64, proj *particle.Projection) (*particle.Buffer, error) {
	out := particle.NewBuffer(proj.Schema(), 0)
	err := df.Scan(lo, hi, proj, nil, func(recs []byte, _ []int32) error { return proj.DecodeRecords(out, recs) })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// refPayload is the kept reference for the read path the scan replaced:
// it materializes the file's whole record image, one block at a time,
// serially, straight from the file — no seam, no tier, no window, no
// field skipping.
func refPayload(t *testing.T, path string) []byte {
	t.Helper()
	df, err := OpenDataFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	schema := df.Header.Schema
	if !df.Compressed() {
		image := make([]byte, df.Header.Count*int64(schema.Stride()))
		if _, err := df.f.ReadAt(image, df.payloadOff); err != nil && len(image) > 0 {
			t.Fatal(err)
		}
		return image
	}
	var image []byte
	for bi := 0; bi+1 < len(df.blockRecs); bi++ {
		comp := make([]byte, df.blockOffs[bi+1]-df.blockOffs[bi])
		if _, err := df.f.ReadAt(comp, df.payloadOff+df.blockOffs[bi]); err != nil {
			t.Fatal(err)
		}
		recs, err := particle.DecompressBlock(schema, comp, int(df.blockRecs[bi+1]-df.blockRecs[bi]))
		if err != nil {
			t.Fatal(err)
		}
		image = append(image, recs...)
	}
	return image
}

// refQuery is the old algorithm end to end: whole range -> Decode ->
// per-row test -> AppendFrom, projected afterwards.
func refQuery(schema *particle.Schema, image []byte, lo, hi int64, proj *particle.Projection, keep func(geom.Vec3) bool) (*particle.Buffer, error) {
	stride := int64(schema.Stride())
	all, err := particle.Decode(schema, image[lo*stride:hi*stride])
	if err != nil {
		return nil, err
	}
	out := particle.NewBuffer(schema, 0)
	for i := 0; i < all.Len(); i++ {
		if keep(all.Position(i)) {
			out.AppendFrom(all, i)
		}
	}
	if proj != nil {
		return proj.Apply(out)
	}
	return out, nil
}

// poisoned wraps a scan callback so that it sees only what the scan
// defines for it: it is handed a copy of the chunk in which every record
// outside the selection, position included, and every field outside the
// projection has been overwritten. A callback that reads anything it was
// not given then produces a wrong answer instead of a lucky one — which
// is how "the filters never look at a record that was not picked" is
// checked, and a compressed block's never-assembled rows along with it.
// selecting says whether the scan was given a box (a nil picked
// then means nothing was picked, not everything).
func poisoned(schema *particle.Schema, proj *particle.Projection, selecting bool, take func(recs []byte, picked []int32) error) func([]byte, []int32) error {
	stride := schema.Stride()
	var scratch []byte
	return func(recs []byte, picked []int32) error {
		if cap(scratch) < len(recs) {
			scratch = make([]byte, len(recs))
		}
		cp := scratch[:len(recs)]
		for i := range cp {
			cp[i] = 0xA5
		}
		keepRow := func(i int) {
			row, src := cp[i*stride:(i+1)*stride], recs[i*stride:(i+1)*stride]
			if proj == nil {
				copy(row, src)
				return
			}
			for fi, want := range proj.Wants() {
				if want {
					o := schema.Offset(fi)
					copy(row[o:o+schema.Field(fi).Bytes()], src[o:])
				}
			}
		}
		if selecting {
			for j, i := range picked {
				if int(i) >= len(recs)/stride || j > 0 && picked[j-1] >= i {
					return fmt.Errorf("selection %v is not an increasing list of records of a %d-record chunk", picked, len(recs)/stride)
				}
				keepRow(int(i))
			}
		} else {
			for i := 0; i < len(recs)/stride; i++ {
				keepRow(i)
			}
		}
		return take(cp, picked)
	}
}

// lruSeam is a block-cache-shaped ReaderAt seam: fixed-size blocks of
// the base, a capacity in blocks, least-recently-used eviction.
type lruSeam struct {
	base      io.ReaderAt
	blockSize int64
	capacity  int

	mu     sync.Mutex
	lru    *list.List // values *seamBlock
	blocks map[int64]*list.Element
}

type seamBlock struct {
	idx  int64
	data []byte
}

func newLRUSeam(base io.ReaderAt, blockSize int64, capacity int) *lruSeam {
	return &lruSeam{base: base, blockSize: blockSize, capacity: capacity, lru: list.New(), blocks: map[int64]*list.Element{}}
}

func (s *lruSeam) block(idx int64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.blocks[idx]; ok {
		s.lru.MoveToFront(el)
		return el.Value.(*seamBlock).data, nil
	}
	buf := make([]byte, s.blockSize)
	n, err := s.base.ReadAt(buf, idx*s.blockSize)
	if err != nil && err != io.EOF {
		return nil, err
	}
	s.blocks[idx] = s.lru.PushFront(&seamBlock{idx: idx, data: buf[:n]})
	for s.lru.Len() > s.capacity {
		back := s.lru.Back()
		s.lru.Remove(back)
		delete(s.blocks, back.Value.(*seamBlock).idx)
	}
	return buf[:n], nil
}

func (s *lruSeam) ReadAt(p []byte, off int64) (int, error) {
	n := 0
	for len(p) > 0 {
		data, err := s.block(off / s.blockSize)
		if err != nil {
			return n, err
		}
		bo := off % s.blockSize
		if int64(len(data)) <= bo {
			return n, io.EOF
		}
		m := copy(p, data[bo:])
		n, off, p = n+m, off+int64(m), p[m:]
	}
	return n, nil
}

// lendingSeam is an lruSeam that also lends its blocks in place (the
// viewerAt seam the serving layer's block cache is), so a raw scan hands
// out the seam's own slices, shared between scans. Its blocks outlive
// their eviction, so its lease has nothing to do.
type lendingSeam struct{ *lruSeam }

type noLease struct{}

func (noLease) Release() {}

func (s lendingSeam) ViewAt(off int64) ([]byte, interface{ Release() }, error) {
	data, err := s.block(off / s.blockSize)
	if err != nil {
		return nil, nil, err
	}
	if bo := off % s.blockSize; bo < int64(len(data)) {
		return data[bo:], noLease{}, nil
	}
	return nil, nil, io.EOF
}

// Derive builds the image on every call: the seam keeps nothing beside
// its blocks.
func (s lendingSeam) Derive(_ int64, build func() ([]byte, error)) ([]byte, interface{ Release() }, error) {
	img, err := build()
	return img, noLease{}, err
}

// recyclingSeam is an lruSeam that lends each view in a buffer of its
// own and, the moment the view's lease is released, overwrites that
// buffer and hands it to the next view: a scan that read a view after
// releasing it, or released one twice, gives a wrong answer instead of a
// lucky one. out counts the leases not yet released.
type recyclingSeam struct {
	*lruSeam
	out  atomic.Int64
	fmu  sync.Mutex
	free [][]byte
}

type recycledView struct {
	s        *recyclingSeam
	buf      []byte
	released bool
}

func (l *recycledView) Release() {
	if l.released {
		panic("recyclingSeam: lease released twice")
	}
	l.released = true
	for i := range l.buf {
		l.buf[i] = 0xA5
	}
	l.s.out.Add(-1)
	l.s.fmu.Lock()
	l.s.free = append(l.s.free, l.buf[:0])
	l.s.fmu.Unlock()
}

func (s *recyclingSeam) ViewAt(off int64) ([]byte, interface{ Release() }, error) {
	data, err := s.block(off / s.blockSize)
	if err != nil {
		return nil, nil, err
	}
	bo := off % s.blockSize
	if bo >= int64(len(data)) {
		return nil, nil, io.EOF
	}
	v, lease := s.lend(data[bo:])
	return v, lease, nil
}

// lend copies b into a recycled buffer and lends it.
func (s *recyclingSeam) lend(b []byte) ([]byte, interface{ Release() }) {
	var buf []byte
	s.fmu.Lock()
	if n := len(s.free); n > 0 {
		buf, s.free = s.free[n-1], s.free[:n-1]
	}
	s.fmu.Unlock()
	buf = append(buf, b...)
	s.out.Add(1)
	return buf, &recycledView{s: s, buf: buf}
}

// Derive builds the image on every call and lends it as it lends a view:
// poisoned the moment its lease is released.
func (s *recyclingSeam) Derive(_ int64, build func() ([]byte, error)) ([]byte, interface{ Release() }, error) {
	img, err := build()
	if err != nil {
		return nil, nil, err
	}
	v, lease := s.lend(img)
	return v, lease, nil
}

// TestScanMatchesReference is the differential test of the streaming
// read path: over {raw, lossless, fast, lossy} files x {full range, LOD
// prefix ending mid-block, range starting mid-block, both ends inside
// one block, empty range} x {all fields, position only, position + one
// scalar} x {no seam, block seam, a seam that lends its blocks — of a
// size no record is aligned to, and of a size smaller than a record —,
// a seam that recycles a view the moment its lease is released},
// a box query (select-then-take through the fused filter), a
// halo and an unfiltered fill must equal the kept reference (whole range
// -> Decode -> per-row test) bit for bit — while every callback is
// handed only what the scan defines for it (poisoned). Eight goroutines
// share each DataFile, so under -race this is also the proof that a scan
// never writes a seam's lent bytes or another scan's chunk, and that the
// selections the scans make share nothing with the takes. Once
// they are done, the recycling seam has every lease back.
func TestScanMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 12000
	schema := particle.Uintah()
	buf := particle.Uniform(schema, geom.UnitBox(), n, 4242, 0)
	lod.Shuffle(buf, 5)
	dir := t.TempDir()

	// Block boundaries of the compressed layout; the raw file is read at
	// the same record ranges.
	var cuts []int64
	at := int64(0)
	for _, l := range codecBlockLens(n, lod.DefaultParams()) {
		at += l
		cuts = append(cuts, at)
	}
	k := len(cuts)
	if k < 5 {
		t.Fatalf("only %d codec blocks; the ranges below need 5", k)
	}
	ranges := [][2]int64{
		{0, n},                             // full range
		{0, cuts[k-3] + 37},                // LOD-style prefix ending mid-block
		{cuts[k-4] + 11, cuts[k-2]},        // starts mid-block, ends on a boundary
		{cuts[k-4] + 11, cuts[k-3] + 1000}, // both ends mid-block
		{cuts[k-2] + 5, cuts[k-2] + 600},   // inside one block: both clips on it
		{cuts[k-3], cuts[k-3]},             // empty
	}
	projections := [][]string{nil, {particle.PositionField}, {"density"}}

	// codec/seam, where the seam names what sits under the file: nothing,
	// a ReaderAt seam ("seam"), or one that lends its blocks ("view").
	type config struct{ codec, seam string }
	var configs []config
	for _, codec := range []string{"raw", "lossless", "fast", "lossy"} {
		for _, seam := range []string{"none", "seam", "view", "view-tiny", "view-recycle"} {
			configs = append(configs, config{codec, seam})
		}
	}
	specs := map[string]particle.Spec{
		"raw":      {},
		"lossless": particle.LosslessSpec(schema),
		"fast":     particle.FastSpec(schema),
		"lossy":    particle.LossySpec(schema, 1e-4),
	}
	images := map[string][]byte{}
	for codec, spec := range specs {
		path := filepath.Join(dir, codec+".spd")
		hdr := DataHeader{LOD: lod.DefaultParams(), Heuristic: lod.Random, Seed: 5, Codec: spec}
		if err := writeBuf(nil, path, hdr, buf); err != nil {
			t.Fatal(err)
		}
		images[codec] = refPayload(t, path)
	}
	for _, cfg := range configs {
		image := images[cfg.codec]
		t.Run(cfg.codec+"/"+cfg.seam, func(t *testing.T) {
			var opts OpenOptions
			var recycling []*recyclingSeam
			switch cfg.seam {
			case "seam":
				opts.Seam = func(_ string, f io.ReaderAt) io.ReaderAt { return newLRUSeam(f, 16<<10, 32) }
			case "view":
				opts.Seam = func(_ string, f io.ReaderAt) io.ReaderAt { return lendingSeam{newLRUSeam(f, 1000, 32)} }
			case "view-tiny":
				opts.Seam = func(_ string, f io.ReaderAt) io.ReaderAt { return lendingSeam{newLRUSeam(f, 100, 32)} }
			case "view-recycle":
				opts.Seam = func(_ string, f io.ReaderAt) io.ReaderAt {
					s := &recyclingSeam{lruSeam: newLRUSeam(f, 1000, 32)}
					recycling = append(recycling, s)
					return s
				}
			}
			df, err := OpenDataFileWith(filepath.Join(dir, cfg.codec+".spd"), opts)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					r := rand.New(rand.NewSource(seed))
					for i := 0; i < 3; i++ {
						rg := ranges[r.Intn(len(ranges))]
						var proj *particle.Projection
						if names := projections[r.Intn(len(projections))]; names != nil {
							p, err := schema.Project(names)
							if err != nil {
								t.Error(err)
								return
							}
							proj = p
						}
						c := geom.V3(r.Float64(), r.Float64(), r.Float64())
						h := 0.05 + 0.4*r.Float64()
						q := geom.NewBox(c.Sub(geom.V3(h, h, h)), c.Add(geom.V3(h, h, h)))
						grown := geom.NewBox(q.Lo.Sub(geom.V3(0.03, 0.03, 0.03)), q.Hi.Add(geom.V3(0.03, 0.03, 0.03)))
						kind := []string{"box", "halo", "fill"}[r.Intn(3)]
						what := fmt.Sprintf("%s range %v fields %v box %v", kind, rg, proj != nil, q)

						// What the scan returns, and the per-row tests that say
						// what it should have.
						var got []*particle.Buffer
						var keeps []func(geom.Vec3) bool
						var err error
						switch kind {
						case "box":
							f := particle.NewBoxFilter(schema, proj, q)
							err = df.Scan(rg[0], rg[1], proj, f.Box(), poisoned(schema, proj, true, f.Take))
							got = []*particle.Buffer{f.Buffer()}
							keeps = []func(geom.Vec3) bool{q.ContainsClosed}
						case "halo":
							f := particle.NewHaloFilter(schema, proj, grown, q)
							err = df.Scan(rg[0], rg[1], proj, f.Box(), poisoned(schema, proj, true, f.Take))
							own, ghost := f.Rows()
							got = []*particle.Buffer{own.Buffer(), ghost.Buffer()}
							keeps = []func(geom.Vec3) bool{
								func(p geom.Vec3) bool { return grown.ContainsClosed(p) && q.Contains(p) },
								func(p geom.Vec3) bool { return grown.ContainsClosed(p) && !q.Contains(p) },
							}
						case "fill":
							f := particle.NewRowFiller(schema, proj, int(rg[1]-rg[0]))
							err = df.Scan(rg[0], rg[1], proj, nil, poisoned(schema, proj, false, f.Chunk))
							rows, ferr := f.Rows()
							if ferr != nil {
								t.Errorf("%s: %v", what, ferr)
								return
							}
							got = []*particle.Buffer{rows.Buffer()}
							keeps = []func(geom.Vec3) bool{func(geom.Vec3) bool { return true }}
						}
						if err != nil {
							t.Errorf("%s: %v", what, err)
							return
						}
						for j, keep := range keeps {
							want, err := refQuery(schema, image, rg[0], rg[1], proj, keep)
							if err != nil {
								t.Errorf("%s: reference: %v", what, err)
								return
							}
							if !got[j].Equal(want) {
								t.Errorf("%s: part %d: scan kept %d, reference kept %d, or they differ in content", what, j, got[j].Len(), want.Len())
								return
							}
						}
					}
				}(int64(g) + 100)
			}
			wg.Wait()
			for _, s := range recycling {
				if n := s.out.Load(); n != 0 {
					t.Errorf("%d leases never released", n)
				}
			}
			if err := df.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestScanChunksCoverRangeInOrder pins the Scan contract the callers
// build on: chunks are record-aligned, arrive in record order, and tile
// [lo, hi) exactly — for ReadRange that is the whole correctness
// argument of decoding in place — and a scan ended by its callback has
// released the view it was in.
func TestScanChunksCoverRangeInOrder(t *testing.T) {
	raw, comp, _ := writeCodecPair(t, 3*scanChunkRecords+123, particle.LosslessSpec(particle.Uintah()), false)
	for i, path := range []string{raw, comp, raw} {
		var opts OpenOptions
		var lender *recyclingSeam
		if i == 2 {
			// The raw file again, through a seam that lends its blocks.
			opts.Seam = func(_ string, f io.ReaderAt) io.ReaderAt {
				lender = &recyclingSeam{lruSeam: newLRUSeam(f, 4096, 8)}
				return lender
			}
		}
		df, err := OpenDataFileWith(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		image := refPayload(t, path)
		stride := int64(df.Header.Schema.Stride())
		lo, hi := int64(7), df.Header.Count-5
		at := lo
		err = df.Scan(lo, hi, nil, nil, func(recs []byte, picked []int32) error {
			if picked != nil {
				t.Errorf("a scan without a box handed out the selection %v", picked)
			}
			if int64(len(recs))%stride != 0 || len(recs) == 0 {
				t.Errorf("chunk of %d bytes is not a positive whole number of records", len(recs))
			}
			if string(recs) != string(image[at*stride:at*stride+int64(len(recs))]) {
				t.Errorf("chunk at record %d differs from the payload", at)
			}
			at += int64(len(recs)) / stride
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if at != hi {
			t.Errorf("chunks ended at record %d, want %d", at, hi)
		}
		// A callback error stops the scan and comes back to the caller.
		calls := 0
		err = df.Scan(0, df.Header.Count, nil, nil, func([]byte, []int32) error { calls++; return io.ErrUnexpectedEOF })
		if err == nil || calls != 1 {
			t.Errorf("callback error: scan returned %v after %d calls", err, calls)
		}
		if lender != nil && lender.out.Load() != 0 {
			t.Errorf("%d leases still out after a scan ended by its callback", lender.out.Load())
		}
		df.Close()
	}
}
