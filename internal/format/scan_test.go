package format

import (
	"container/list"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"spio/internal/geom"
	"spio/internal/lod"
	"spio/internal/particle"
)

// scanProjected reads records [lo, hi) keeping the projected fields, the
// way a projected reader drives Scan.
func scanProjected(df *DataFile, lo, hi int64, proj *particle.Projection) (*particle.Buffer, error) {
	out := particle.NewBuffer(proj.Schema(), 0)
	err := df.Scan(lo, hi, proj, func(recs []byte) error { return proj.DecodeRecords(out, recs) })
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
// per-row closed test -> AppendFrom, projected afterwards.
func refQuery(schema *particle.Schema, image []byte, lo, hi int64, proj *particle.Projection, q geom.Box) (*particle.Buffer, error) {
	stride := int64(schema.Stride())
	all, err := particle.Decode(schema, image[lo*stride:hi*stride])
	if err != nil {
		return nil, err
	}
	out := particle.NewBuffer(schema, 0)
	for i := 0; i < all.Len(); i++ {
		if q.ContainsClosed(all.Position(i)) {
			out.AppendFrom(all, i)
		}
	}
	if proj != nil {
		return proj.Apply(out)
	}
	return out, nil
}

// scanQuery is the new path: Scan -> the fused box filter.
func scanQuery(df *DataFile, lo, hi int64, proj *particle.Projection, q geom.Box) (*particle.Buffer, error) {
	f := particle.NewBoxFilter(df.Header.Schema, proj, q)
	if err := df.Scan(lo, hi, proj, f.Chunk); err != nil {
		return nil, err
	}
	return f.Buffer(), nil
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
// out the seam's own slices.
type lendingSeam struct{ *lruSeam }

func (s lendingSeam) ViewAt(off int64) ([]byte, error) {
	data, err := s.block(off / s.blockSize)
	if err != nil {
		return nil, err
	}
	if bo := off % s.blockSize; bo < int64(len(data)) {
		return data[bo:], nil
	}
	return nil, io.EOF
}

// oneBlockTier is the thrashing decoded tier: it keeps only the block
// most recently offered.
type oneBlockTier struct {
	mu   sync.Mutex
	bi   int
	recs []byte
}

func (c *oneBlockTier) GetBlock(bi int) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.recs != nil && c.bi == bi {
		return c.recs
	}
	return nil
}

func (c *oneBlockTier) PutBlock(bi int, recs []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bi, c.recs = bi, recs
}

// TestScanMatchesReference is the differential test of the streaming
// read path: over {raw, lossless, lossy} files x {full range, LOD
// prefix ending mid-block, range starting mid-block, empty range} x
// {all fields, position only, position + one scalar} x {no seam, block
// seam, seam + decoded tier, seam + tier of one block, a seam that lends
// its blocks — of a size no record is aligned to, and of a size smaller
// than a record}, a box query
// through Scan + the filter kernel must equal the kept reference (whole
// range -> Decode -> per-row closed test) bit for bit. Eight goroutines
// share each DataFile, so under -race this is also the proof that a scan
// never writes a shared tier slice or another scan's chunk.
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
		{cuts[k-3], cuts[k-3]},             // empty
	}
	projections := [][]string{nil, {particle.PositionField}, {"density"}}

	specs := map[string]particle.Spec{
		"raw":      {},
		"lossless": particle.LosslessSpec(schema),
		"lossy":    particle.LossySpec(schema, 1e-4),
	}
	seams := []string{"none", "seam", "seam+tier", "seam+tier1", "view", "view-tiny"}
	for codec, spec := range specs {
		path := filepath.Join(dir, codec+".spd")
		hdr := DataHeader{LOD: lod.DefaultParams(), Heuristic: lod.Random, Seed: 5, Codec: spec}
		if err := WriteDataFile(nil, path, hdr, buf); err != nil {
			t.Fatal(err)
		}
		image := refPayload(t, path)
		for _, seam := range seams {
			t.Run(codec+"/"+seam, func(t *testing.T) {
				df, err := OpenDataFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if seam != "none" {
					df.SetReaderAt(newLRUSeam(df.ReaderAt(), 16<<10, 32))
				}
				switch seam {
				case "view":
					df.SetReaderAt(lendingSeam{newLRUSeam(df.f, 1000, 32)})
				case "view-tiny":
					df.SetReaderAt(lendingSeam{newLRUSeam(df.f, 100, 32)})
				case "seam+tier":
					df.SetDecodedCache(newMapDecodedCache())
				case "seam+tier1":
					df.SetDecodedCache(&oneBlockTier{})
				}
				var wg sync.WaitGroup
				for g := 0; g < 8; g++ {
					wg.Add(1)
					go func(seed int64) {
						defer wg.Done()
						r := rand.New(rand.NewSource(seed))
						for i := 0; i < 4; i++ {
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
							what := fmt.Sprintf("range %v fields %v box %v", rg, proj != nil, q)
							want, err := refQuery(schema, image, rg[0], rg[1], proj, q)
							if err != nil {
								t.Errorf("%s: reference: %v", what, err)
								return
							}
							got, err := scanQuery(df, rg[0], rg[1], proj, q)
							if err != nil {
								t.Errorf("%s: %v", what, err)
								return
							}
							if !got.Equal(want) {
								t.Errorf("%s: scan kept %d, reference kept %d, or they differ in content", what, got.Len(), want.Len())
								return
							}
						}
					}(int64(g) + 100)
				}
				wg.Wait()
				df.raWG.Wait() // readahead must settle before the file closes under -race
				if err := df.Close(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestScanChunksCoverRangeInOrder pins the Scan contract the callers
// build on: chunks are record-aligned, arrive in record order, and tile
// [lo, hi) exactly — for ReadRange that is the whole correctness
// argument of decoding in place.
func TestScanChunksCoverRangeInOrder(t *testing.T) {
	raw, comp, _ := writeCodecPair(t, 3*scanChunkRecords+123, particle.LosslessSpec(particle.Uintah()), false)
	for i, path := range []string{raw, comp, raw} {
		df, err := OpenDataFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			// The raw file again, through a seam that lends its blocks.
			df.SetReaderAt(lendingSeam{newLRUSeam(df.f, 4096, 8)})
		}
		image := refPayload(t, path)
		stride := int64(df.Header.Schema.Stride())
		lo, hi := int64(7), df.Header.Count-5
		at := lo
		err = df.Scan(lo, hi, nil, func(recs []byte) error {
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
		err = df.Scan(0, df.Header.Count, nil, func([]byte) error { calls++; return io.ErrUnexpectedEOF })
		if err == nil || calls != 1 {
			t.Errorf("callback error: scan returned %v after %d calls", err, calls)
		}
		df.Close()
	}
}
