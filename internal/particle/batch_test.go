package particle

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// batchSchema builds a random schema: position plus a handful of
// float32/float64 fields of random arity, one sometimes id-like.
func batchSchema(r *rand.Rand) *Schema {
	fields := []Field{{Name: PositionField, Kind: Float64, Components: 3}}
	n := 1 + r.Intn(5)
	for i := 0; i < n; i++ {
		kind := Float64
		if r.Intn(2) == 0 {
			kind = Float32
		}
		name := fmt.Sprintf("v%d", i)
		if i == 0 && r.Intn(2) == 0 {
			name, kind = "id", Float64 // id-like: exercises the delta codec
		}
		fields = append(fields, Field{Name: name, Kind: kind, Components: 1 + r.Intn(4)})
	}
	return MustSchema(fields)
}

// batchRecords fills a random record image. Half the time the bytes are
// pure noise (the hardest lossless input: every codec falls back to
// raw); otherwise a compressible pattern with id-like runs.
func batchRecords(r *rand.Rand, schema *Schema, count int) []byte {
	records := make([]byte, count*schema.Stride())
	if r.Intn(2) == 0 {
		r.Read(records)
		return records
	}
	buf := NewBuffer(schema, count)
	vals := make([][]float64, schema.NumFields())
	for i := 0; i < count; i++ {
		for fi := range vals {
			f := schema.Field(fi)
			col := make([]float64, f.Components)
			for k := range col {
				if f.Name == "id" {
					col[k] = float64(i*f.Components + k)
				} else {
					col[k] = r.Float64() * 100
				}
			}
			vals[fi] = col
		}
		buf.Append(vals...)
	}
	copy(records, buf.Encode())
	return records
}

// specFor picks one of the codec specs a batch can run under.
func specFor(r *rand.Rand, schema *Schema) Spec {
	switch r.Intn(4) {
	case 0:
		return Spec{}
	case 1:
		return LosslessSpec(schema)
	case 2:
		return FastSpec(schema)
	default:
		return LossySpec(schema, 1e-3)
	}
}

// TestBatchCompressMatchesSerial is half the differential property:
// for random schemas, specs, block counts, and worker counts, the
// frames CompressBlocks produces are byte-identical to a serial
// CompressBlock loop — parallel compression must not depend on
// scheduling. And the bound is one: eight calls at once on 8 Ps, on the
// compressing slots, never have more blocks inside fn than those slots,
// and no call runs on more goroutines than its worker count.
func TestBatchCompressMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		schema := batchSchema(r)
		spec := specFor(r, schema)
		blocks := make([][]byte, 1+r.Intn(7))
		for i := range blocks {
			blocks[i] = batchRecords(r, schema, r.Intn(300))
		}
		want := make([][]byte, len(blocks))
		for i, recs := range blocks {
			frame, err := CompressBlock(schema, spec, recs)
			if err != nil {
				t.Fatalf("trial %d: serial compress: %v", trial, err)
			}
			want[i] = frame
		}
		for _, workers := range []int{0, 1, 2, 8} {
			got, err := CompressBlocks(schema, spec, blocks, workers)
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("trial %d workers %d: block %d frame differs from serial", trial, workers, i)
				}
			}
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	var inside, most atomic.Int64
	var wg sync.WaitGroup
	for c, workers := range []int{0, 1, 2, 3, 5, 8, 16, 0} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			const n = 40
			var mu sync.Mutex
			ran := map[string]bool{}
			err := eachBlock(n, workers, compressing, func(i int) error {
				now := inside.Add(1)
				for m := most.Load(); now > m && !most.CompareAndSwap(m, now); m = most.Load() {
				}
				mu.Lock()
				ran[goroutineID()] = true
				mu.Unlock()
				time.Sleep(100 * time.Microsecond)
				inside.Add(-1)
				return nil
			})
			if err != nil {
				t.Error(err)
			}
			if want := batchWorkers(workers, n); len(ran) > want {
				t.Errorf("call %d of %d workers ran on %d goroutines", c, want, len(ran))
			}
		}()
	}
	wg.Wait()
	if most.Load() > int64(cap(compressing)) {
		t.Errorf("%d blocks inside fn at once over %d slots", most.Load(), cap(compressing))
	}
}

// goroutineID is the number runtime.Stack heads the calling goroutine's
// trace with.
func goroutineID() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestBatchDecompressMatchesSerial is the other half: decode the frames
// — in parallel, serially, and over random sub-ranges of blocks —
// demanding byte-identity with the original records everywhere.
func TestBatchDecompressMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 60; trial++ {
		schema := batchSchema(r)
		stride := schema.Stride()
		// Lossless specs only: the differential compares against the
		// original bytes.
		specs := []Spec{{}, LosslessSpec(schema), FastSpec(schema)}
		spec := specs[r.Intn(len(specs))]
		nblocks := 1 + r.Intn(7)
		counts := make([]int, nblocks)
		var want []byte
		var blocks []CompressedBlock
		total := 0
		for i := range counts {
			counts[i] = r.Intn(300)
			recs := batchRecords(r, schema, counts[i])
			frame, err := CompressBlock(schema, spec, recs)
			if err != nil {
				t.Fatalf("trial %d: compress: %v", trial, err)
			}
			want = append(want, recs...)
			blocks = append(blocks, CompressedBlock{Frame: frame, Count: counts[i], At: total})
			total += counts[i]
		}
		// Serial reference via DecompressBlockInto.
		ref := make([]byte, total*stride)
		for bi, blk := range blocks {
			region := ref[blk.At*stride : (blk.At+blk.Count)*stride]
			if err := DecompressBlockInto(schema, blk.Frame, blk.Count, region); err != nil {
				t.Fatalf("trial %d: serial decode block %d: %v", trial, bi, err)
			}
		}
		if !bytes.Equal(ref, want) {
			t.Fatalf("trial %d: serial round trip not byte-identical", trial)
		}
		for _, workers := range []int{0, 1, 2, 8} {
			dst := make([]byte, total*stride)
			if err := DecompressBlocks(schema, blocks, dst, workers); err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			if !bytes.Equal(dst, want) {
				t.Fatalf("trial %d workers %d: parallel decode differs from serial", trial, workers)
			}
		}
		// A random sub-range of blocks into a smaller destination: the
		// At offsets are the caller's to re-base.
		b0 := r.Intn(nblocks)
		b1 := b0 + 1 + r.Intn(nblocks-b0)
		sub := make([]CompressedBlock, 0, b1-b0)
		base := blocks[b0].At
		for _, blk := range blocks[b0:b1] {
			blk.At -= base
			sub = append(sub, blk)
		}
		subTotal := 0
		for _, blk := range sub {
			subTotal += blk.Count
		}
		dst := make([]byte, subTotal*stride)
		if err := DecompressBlocks(schema, sub, dst, 4); err != nil {
			t.Fatalf("trial %d: sub-range decode: %v", trial, err)
		}
		if !bytes.Equal(dst, want[base*stride:(base+subTotal)*stride]) {
			t.Fatalf("trial %d: sub-range [%d,%d) decode differs", trial, b0, b1)
		}
	}
}

// TestFastSpecRoundTrip pins the shuffle+LZ spec's lossless contract on
// both structured and adversarial (pure noise) record images.
func TestFastSpecRoundTrip(t *testing.T) {
	schema, records := testBlock(t, 1500, 7)
	spec := FastSpec(schema)
	for trial, recs := range [][]byte{records, func() []byte {
		noise := make([]byte, len(records))
		rand.New(rand.NewSource(8)).Read(noise)
		return noise
	}()} {
		comp, err := CompressBlock(schema, spec, recs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecompressBlock(schema, comp, 1500)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, recs) {
			t.Fatalf("trial %d: fast spec round trip not byte-identical", trial)
		}
	}
}

// TestBatchDecompressBadRegion pins the upfront bounds check: a block
// whose region escapes the destination must fail before any decode.
func TestBatchDecompressBadRegion(t *testing.T) {
	schema, records := testBlock(t, 50, 11)
	frame, err := CompressBlock(schema, LosslessSpec(schema), records)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 50*schema.Stride())
	bad := []CompressedBlock{
		{Frame: frame, Count: 50, At: 1},  // runs past the end
		{Frame: frame, Count: 50, At: -1}, // negative offset
		{Frame: frame, Count: -1, At: 0},  // negative count
		{Frame: frame, Count: 500, At: 0}, // count alone too large
	}
	for i, blk := range bad {
		if err := DecompressBlocks(schema, []CompressedBlock{blk}, dst, 2); err == nil {
			t.Errorf("case %d: no error for region [%d,+%d)", i, blk.At, blk.Count)
		}
	}
}

// TestCodecAllocs pins the pooled-state contract (the PR's allocation
// satellite): steady-state CompressBlock allocates only its output
// frame, and DecompressBlockInto allocates nothing of its own — under
// either byte codec: the inflater's Huffman tables are part of the
// pooled state. Each bound leaves slack for a GC emptying the state
// pool mid-run.
func TestCodecAllocs(t *testing.T) {
	schema, records := testBlock(t, 4096, 13)
	cases := []struct {
		name string
		spec Spec
	}{
		{"lossless", LosslessSpec(schema)},
		{"fast", FastSpec(schema)},
	}
	for _, c := range cases {
		comp, err := CompressBlock(schema, c.spec, records)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, len(records))
		if err := DecompressBlockInto(schema, comp, 4096, dst); err != nil {
			t.Fatal(err)
		}

		compAllocs := testing.AllocsPerRun(50, func() {
			if _, err := CompressBlock(schema, c.spec, records); err != nil {
				t.Fatal(err)
			}
		})
		if compAllocs > 2 {
			t.Errorf("%s: CompressBlock: %.1f allocs/op, want <= 2 (output frame only)",
				c.name, compAllocs)
		}
		decAllocs := testing.AllocsPerRun(50, func() {
			if err := DecompressBlockInto(schema, comp, 4096, dst); err != nil {
				t.Fatal(err)
			}
		})
		if decAllocs > 1 {
			t.Errorf("%s: DecompressBlockInto: %.1f allocs/op, want <= 1 (pooled state only)",
				c.name, decAllocs)
		}
	}
}

// TestDecompressBlockIntoSizeCheck pins the destination contract: dst
// must be exactly count*stride.
func TestDecompressBlockIntoSizeCheck(t *testing.T) {
	schema, records := testBlock(t, 10, 15)
	comp, err := CompressBlock(schema, LosslessSpec(schema), records)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 9 * schema.Stride(), 11 * schema.Stride()} {
		if err := DecompressBlockInto(schema, comp, 10, make([]byte, n)); err == nil {
			t.Errorf("dst of %d bytes accepted for 10 records", n)
		}
	}
}
