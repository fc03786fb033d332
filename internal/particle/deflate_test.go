package particle

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// checkDeflate is the encoder's contract on one column of planes byte
// planes: compress/flate's reader and the in-house inflater both turn the
// payload back into the column and use it up to its last byte; the payload
// is no larger than the column stored; and a deflater that has coded
// other columns writes the same bytes as a new one.
func checkDeflate(t testing.TB, d *deflater, col []byte, planes int) []byte {
	t.Helper()
	out := new(deflater).deflatePlanes(nil, col, planes)
	if again := d.deflatePlanes(nil, col, planes); !bytes.Equal(again, out) {
		t.Fatalf("%d bytes in %d planes: a used deflater writes other bytes than a new one", len(col), planes)
	}
	n := len(col) / planes
	if stored := len(col) + 5*planes*((n+maxStored-1)/maxStored) + 5; len(out) > stored {
		t.Fatalf("%d bytes in %d planes: payload of %d bytes, stored %d", len(col), planes, len(out), stored)
	}
	got, unread, err := refInflate(out, len(col))
	if err != nil || unread != 0 || !bytes.Equal(got, col) {
		t.Fatalf("%d bytes in %d planes: compress/flate reads %d bytes, leaves %d: %v", len(col), planes, len(got), unread, err)
	}
	if got, err = ownInflate(out, len(col)); err != nil || !bytes.Equal(got, col) {
		t.Fatalf("%d bytes in %d planes: the inflater: %v", len(col), planes, err)
	}
	return out
}

// deflateSeeds are columns that each take the encoder somewhere else: no
// bytes at all, planes too short to hold a match, one symbol only, runs,
// periods, noise (stored unasked), noise with a little structure (tried,
// then stored), a plane past one stored block, text.
func deflateSeeds() [][]byte {
	r := rand.New(rand.NewSource(12))
	noise := make([]byte, 70000)
	r.Read(noise)
	ramp := make([]byte, 65536)
	for i := range ramp {
		ramp[i] = byte(i)
	}
	skewed := make([]byte, 5000)
	for i := range skewed {
		skewed[i] = byte(r.Intn(256) & r.Intn(256) & r.Intn(256))
	}
	seeds := [][]byte{
		bytes.Repeat([]byte{0}, 70000),
		bytes.Repeat([]byte("abcdefghi"), 2000),
		noise, noise[:4096], noise[:300], ramp, ramp[:5000], skewed,
		append(bytes.Repeat([]byte{7}, 3000), noise[:3000]...),
		[]byte("a plane of text, a plane of text, and a plane of text again"),
	}
	for n := 0; n <= 9; n++ {
		seeds = append(seeds, ramp[:n], bytes.Repeat([]byte{'a'}, n))
	}
	return seeds
}

func TestDeflateSeeds(t *testing.T) {
	used := new(deflater)
	for _, col := range deflateSeeds() {
		for _, planes := range []int{1, 4, 8} {
			checkDeflate(t, used, col[:len(col)/planes*planes], planes)
		}
	}
	// A piece ends at blockMax bytes; what follows is coded alone.
	long := bytes.Repeat([]byte("0123456789abcdef-"), (2*blockMax+999)/17)
	if out := checkDeflate(t, used, long, 1); len(out) > len(long)/50 {
		t.Errorf("%d bytes of period 17 take %d", len(long), len(out))
	}
	// The epoch wraps: the table is cleared and the bytes are the same.
	used.epoch = math.MaxUint32 - 10
	checkDeflate(t, used, long[:5000], 1)
	if used.epoch > blockMax {
		t.Errorf("epoch %d after a wrap", used.epoch)
	}
}

// TestCodeLengthsAreCompleteAndLimited drives the code construction where
// the tokens of real planes rarely take it: frequencies that grow like the
// Fibonacci numbers make the deepest possible tree, far past either limit.
func TestCodeLengthsAreCompleteAndLimited(t *testing.T) {
	d := new(deflater)
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		nsyms, limit := maxLitSyms, maxCodeLen
		if trial%2 == 1 {
			nsyms, limit = preSyms, maxPreLen
		}
		freq := make([]uint32, nsyms)
		switch used := 2 + r.Intn(nsyms-1); trial % 3 {
		case 0: // Fibonacci-like, capped under the documented 1<<23
			a, b := uint32(1), uint32(1)
			for _, s := range r.Perm(nsyms)[:used] {
				freq[s] = a
				a, b = b, min(a+b, 1<<22)
			}
		case 1:
			for _, s := range r.Perm(nsyms)[:used] {
				freq[s] = 1 + uint32(r.Intn(1<<uint(r.Intn(20))))
			}
		default:
			for _, s := range r.Perm(nsyms)[:used] {
				freq[s] = 1
			}
		}
		lens := make([]uint8, nsyms)
		d.codeLengths(lens, freq, limit)
		var kraft uint64
		for s, l := range lens {
			if (l == 0) != (freq[s] == 0) || int(l) > limit {
				t.Fatalf("trial %d: symbol %d of frequency %d gets %d bits (limit %d)", trial, s, freq[s], l, limit)
			}
			if l != 0 {
				kraft += 1 << (uint(limit) - uint(l))
			}
		}
		if kraft != 1<<uint(limit) {
			t.Fatalf("trial %d: code is not complete: Kraft sum %d of %d", trial, kraft, 1<<uint(limit))
		}
		for a := range lens {
			for b := range lens {
				if freq[a] > freq[b] && freq[b] != 0 && lens[a] > lens[b] {
					t.Fatalf("trial %d: frequency %d gets %d bits, frequency %d gets %d", trial, freq[a], lens[a], freq[b], lens[b])
				}
			}
		}
	}
}

// FuzzDeflate: whatever the bytes and however many planes they are cut
// into, checkDeflate holds.
func FuzzDeflate(f *testing.F) {
	for i, col := range deflateSeeds() {
		f.Add(col, uint8(i))
	}
	used := new(deflater)
	f.Fuzz(func(t *testing.T, col []byte, cut uint8) {
		planes := [3]int{1, 4, 8}[cut%3]
		checkDeflate(t, used, col[:len(col)/planes*planes], planes)
	})
}

// TestFrameNeverExceedsBound holds CompressBlock's promise, which the
// frame arena is sized by: under any spec a frame is at most the records
// and 16 bytes per field.
func TestFrameNeverExceedsBound(t *testing.T) {
	schema, noisy := noisyBlock(t, 8192) // stress planes of 73728 bytes of noise
	_, structured := testBlock(t, 4096, 21)
	r := rand.New(rand.NewSource(4))
	noise := make([]byte, 1000*schema.Stride())
	r.Read(noise) // every field: NaNs for quantize, non-integers for delta, nothing for a matcher
	blocks := map[string][]byte{
		"noisy": noisy, "structured": structured, "noise": noise,
		"constant": bytes.Repeat(structured[:schema.Stride()], 5000),
		"one":      structured[:schema.Stride()], "none": nil,
	}
	specs := map[string]Spec{
		"raw": {}, "lossless": LosslessSpec(schema), "fast": FastSpec(schema), "lossy": LossySpec(schema, 1e-3),
	}
	for bname, records := range blocks {
		for sname, spec := range specs {
			frame := mustCompress(t, schema, spec, records)
			if bound := FrameBound(schema, len(records)); len(frame) > bound {
				t.Errorf("%s records under %s: frame of %d bytes, bound %d", bname, sname, len(frame), bound)
			}
			if _, err := DecompressBlock(schema, frame, len(records)/schema.Stride()); err != nil {
				t.Errorf("%s records under %s: %v", bname, sname, err)
			}
		}
	}
}

// TestArenaOverflowAllocates: a frame is written into its slot of the
// arena only as far as the slot goes. A slot a byte too short — the bound
// says none is — yields the same frame in memory of its own and leaves the
// next slot's bytes alone.
func TestArenaOverflowAllocates(t *testing.T) {
	schema, records := testBlock(t, 2000, 5)
	spec := LosslessSpec(schema)
	want := mustCompress(t, schema, spec, records)

	arena := bytes.Repeat([]byte{0xA5}, len(want)+64)
	short := len(want) - 1
	got, err := AppendCompressedBlock(arena[0:0:short], schema, spec, records)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("frame through a slot one byte short differs: %v", err)
	}
	if &got[0] == &arena[0] {
		t.Error("a frame longer than its slot still starts in the arena")
	}
	if !bytes.Equal(arena[short:], bytes.Repeat([]byte{0xA5}, 65)) {
		t.Error("the bytes after the slot were written")
	}

	// The batch entry point cuts the slots itself, from rows as they lie
	// or permuted: blocks the arena has no room for get frames of their
	// own, the others stay inside it, and it is written nowhere else.
	blocks := [][]byte{records, records[:schema.Stride()*500], records}
	rows, lens := blockRows(schema, blocks)
	defer rows.Release()
	room := FrameBound(schema, len(blocks[0])) + FrameBound(schema, len(blocks[1]))
	full := room + FrameBound(schema, len(blocks[2]))
	for _, order := range [][]int{nil, rand.New(rand.NewSource(6)).Perm(rows.Len())} {
		gathered := gatheredBlocks(schema, blocks, order)
		for _, size := range []int{0, full, room + 100, full / 2} {
			var arena []byte
			if size > 0 {
				arena = bytes.Repeat([]byte{0xA5}, size)
			}
			frames, err := CompressRowsInto(arena, spec, rows, order, lens)
			if err != nil {
				t.Fatal(err)
			}
			off := 0
			for bi, frame := range frames {
				if !bytes.Equal(frame, mustCompress(t, schema, spec, gathered[bi])) {
					t.Fatalf("order %v, arena of %d: frame %d differs from CompressBlock's", order != nil, size, bi)
				}
				if end := off + FrameBound(schema, len(blocks[bi])); end <= size {
					if &frame[0] != &arena[off] {
						t.Errorf("order %v, arena of %d: frame %d is not in its slot", order != nil, size, bi)
					}
					off = end
				}
			}
			if !bytes.Equal(arena[off:], bytes.Repeat([]byte{0xA5}, size-off)) {
				t.Errorf("order %v, arena of %d: the arena past its last slot was written", order != nil, size)
			}
		}
	}
}
