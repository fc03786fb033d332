package particle

import (
	"bytes"
	"compress/flate"
	"io"
	"math/rand"
	"strings"
	"testing"

	"spio/internal/geom"
)

// compress/flate is the reference the in-house inflater is held to, the
// way codec_ref_test.go keeps the single-stream encoder: refInflate is
// the decode every payload went through before inflate.go.

// refInflate inflates stream with the stdlib and reports what it
// produced, how many bytes of stream it left unread, and its error.
// Output past limit bytes is cut off and reported as an error.
func refInflate(stream []byte, limit int) (out []byte, unread int, err error) {
	src := bytes.NewReader(stream) // an io.ByteReader: flate reads no further than it decodes
	out, err = io.ReadAll(io.LimitReader(flate.NewReader(src), int64(limit)+1))
	if err == nil && len(out) > limit {
		err = io.ErrShortBuffer
	}
	return out, src.Len(), err
}

// ownInflate runs the in-house inflater into a fresh n-byte column.
func ownInflate(stream []byte, n int) ([]byte, error) {
	st := codecStatePool.Get()
	defer codecStatePool.Put(st)
	dst := make([]byte, n)
	return dst, st.inf.inflate(dst, stream)
}

// deflated is data through a flate.Writer at level, flushed after every
// segment bytes (0: never) and closed.
func deflated(t testing.TB, data []byte, level, segment int) []byte {
	t.Helper()
	var out bytes.Buffer
	zw, err := flate.NewWriter(&out, level)
	if err != nil {
		t.Fatal(err)
	}
	for len(data) > 0 && segment > 0 {
		k := min(len(data), segment)
		_, _ = zw.Write(data[:k])
		_ = zw.Flush()
		data = data[k:]
	}
	_, _ = zw.Write(data)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// deflatePayloads are the shuffle+deflate payloads of records under the
// lossless spec, each beside the shuffled column it must inflate to.
func deflatePayloads(t testing.TB, schema *Schema, records []byte) (payloads, columns [][]byte) {
	t.Helper()
	for fi, ff := range splitFields(t, schema, mustCompress(t, schema, LosslessSpec(schema), records)) {
		if ff.id == CodecShuffleDeflate {
			payloads = append(payloads, ff.payload)
			columns = append(columns, shuffledColumn(schema, records, fi))
		}
	}
	return payloads, columns
}

// A deflate stream written by hand, bit by bit: what no encoder emits —
// legal corners and illegal headers — has to be spelled out. The code
// assignment below is RFC 1951 §3.2.2 and the symbol tables §3.2.5,
// written out independently of inflate.go's.
type bitWriter struct {
	b []byte
	n uint // bits of the last byte in use
}

// bits appends the low n bits of v, lowest first (header fields, extra bits).
func (w *bitWriter) bits(v uint32, n uint) {
	for ; n > 0; n, v = n-1, v>>1 {
		if w.n%8 == 0 {
			w.b = append(w.b, 0)
		}
		w.b[len(w.b)-1] |= byte(v&1) << (w.n % 8)
		w.n++
	}
}

// huffCode is a canonical Huffman code: lens[s] bits for symbol s.
type huffCode struct {
	lens  []uint8
	codes []uint16
}

func canonical(lens []uint8) huffCode {
	var count, next [16]int
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l, code := 1, 0; l < 16; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	codes := make([]uint16, len(lens))
	for s, l := range lens {
		if l != 0 {
			codes[s] = uint16(next[l])
			next[l]++
		}
	}
	return huffCode{lens, codes}
}

// sym appends symbol s of code c, highest bit first.
func (w *bitWriter) sym(c huffCode, s int) {
	if c.lens[s] == 0 {
		panic("symbol without a code")
	}
	for i := int(c.lens[s]) - 1; i >= 0; i-- {
		w.bits(uint32(c.codes[s]>>i), 1)
	}
}

var (
	lengthBase  = [29]int{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lengthExtra = [29]uint{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase    = [30]int{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra   = [30]uint{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
)

// match appends a <length, distance> pair under the two codes.
func (w *bitWriter) match(lit, dist huffCode, length, d int) {
	s := len(lengthBase) - 1 // 258 has a symbol of its own
	if length < 258 {
		for s--; length < lengthBase[s]; s-- {
		}
	}
	w.sym(lit, 257+s)
	w.bits(uint32(length-lengthBase[s]), lengthExtra[s])
	s = len(distBase) - 1
	for d < distBase[s] {
		s--
	}
	w.sym(dist, s)
	w.bits(uint32(d-distBase[s]), distExtra[s])
}

// stored appends a stored block from the next byte boundary.
func (w *bitWriter) stored(final bool, data []byte) {
	w.header(final, 0)
	w.n = (w.n + 7) &^ 7
	w.b = append(w.b, byte(len(data)), byte(len(data)>>8), ^byte(len(data)), ^byte(len(data)>>8))
	w.b = append(w.b, data...)
	w.n = uint(len(w.b)) * 8
}

func (w *bitWriter) header(final bool, typ uint32) {
	if final {
		typ = typ<<1 | 1
	} else {
		typ <<= 1
	}
	w.bits(typ, 3)
}

// The fixed code of BTYPE=01.
var fixedLitCode, fixedDistCode = func() (huffCode, huffCode) {
	lens := bytes.Repeat([]byte{8}, 288)
	copy(lens[144:256], bytes.Repeat([]byte{9}, 112))
	copy(lens[256:280], bytes.Repeat([]byte{7}, 24))
	return canonical(lens), canonical(bytes.Repeat([]byte{5}, 32))
}()

// preSym is one symbol of a dynamic header's code-length sequence: a
// length 0-15, or 16/17/18 with its repeat count less the minimum.
type preSym struct {
	sym   int
	extra uint32
}

// rawDynamic appends a dynamic block header exactly as told: the three
// counts are written as given (hlit+257, hdist+1 codes are announced),
// then the code-length code's own lengths, then seq under it.
func (w *bitWriter) rawDynamic(final bool, hlit, hdist uint32, pre [19]uint8, seq []preSym) {
	w.header(final, 2)
	w.bits(hlit, 5)
	w.bits(hdist, 5)
	w.bits(19-4, 4)
	for _, s := range precodeOrder {
		w.bits(uint32(pre[s]), 3)
	}
	code := canonical(pre[:])
	for _, ps := range seq {
		w.sym(code, ps.sym)
		w.bits(ps.extra, [19]uint{16: 2, 17: 3, 18: 7}[ps.sym])
	}
}

// plainPre gives the lengths 0-15 four bits each and no repeat codes:
// any sequence of lengths can be spelled under it one by one.
var plainPre = func() (pre [19]uint8) {
	for s := 0; s < 16; s++ {
		pre[s] = 4
	}
	return
}()

// dynamic appends the header of a dynamic block with these two codes.
func (w *bitWriter) dynamic(final bool, lit, dist []uint8) (huffCode, huffCode) {
	var seq []preSym
	for _, l := range append(append([]uint8(nil), lit...), dist...) {
		seq = append(seq, preSym{sym: int(l)})
	}
	w.rawDynamic(final, uint32(len(lit)-257), uint32(len(dist)-1), plainPre, seq)
	return canonical(lit), canonical(dist)
}

// abLit is a literal/length code over 'a', 'b', end-of-block and the
// length symbol want (257-285), two bits each.
func abLit(want int) []uint8 {
	lens := make([]uint8, want+1)
	lens['a'], lens['b'], lens[256], lens[want] = 2, 2, 2, 2
	return lens
}

// TestInflateHandBuiltStreams: the legal corners. Each case writes
// blocks that are not final; the stream is then closed twice over — by
// the empty final block a payload ends with, which leaves the symbol
// loop's careful tail to decode the case, and by a final block of 600
// stored bytes, far enough from both ends for its unguarded body.
func TestInflateHandBuiltStreams(t *testing.T) {
	noise := make([]byte, 32768)
	rand.New(rand.NewSource(1)).Read(noise)
	cases := map[string]func(w *bitWriter) (want []byte){
		"fixed block": func(w *bitWriter) []byte {
			w.header(false, 1)
			for _, c := range "deflate " {
				w.sym(fixedLitCode, int(c))
			}
			w.match(fixedLitCode, fixedDistCode, 16, 8)
			w.sym(fixedLitCode, 256)
			return []byte("deflate deflate deflate ")
		},
		"one-code distance tree": func(w *bitWriter) []byte {
			// As flate.HuffmanOnly sends it: one distance code of one bit,
			// the other half of the code space unassigned.
			lit, dist := w.dynamic(false, abLit(257), []uint8{1})
			w.sym(lit, 'a')
			w.sym(lit, 'b')
			w.match(lit, dist, 3, 1)
			w.sym(lit, 256)
			return []byte("abbbb")
		},
		"no distance code at all": func(w *bitWriter) []byte {
			lens := abLit(257)
			lens[257], lens['c'] = 0, 2
			lit, _ := w.dynamic(false, lens, []uint8{0})
			for _, c := range "cab" {
				w.sym(lit, int(c))
			}
			w.sym(lit, 256)
			return []byte("cab")
		},
		"end-of-block alone, one bit": func(w *bitWriter) []byte {
			lens := make([]uint8, 257)
			lens[256] = 1
			lit, _ := w.dynamic(false, lens, []uint8{0})
			w.sym(lit, 256)
			return nil
		},
		"match of 258": func(w *bitWriter) []byte {
			w.stored(false, noise[:300])
			w.header(false, 1)
			w.match(fixedLitCode, fixedDistCode, 258, 300)
			w.sym(fixedLitCode, 256)
			return append(append([]byte(nil), noise[:300]...), noise[:258]...)
		},
		"distance 32768": func(w *bitWriter) []byte {
			w.stored(false, noise)
			w.header(false, 1)
			w.match(fixedLitCode, fixedDistCode, 100, 32768)
			w.sym(fixedLitCode, 256)
			return append(append([]byte(nil), noise...), noise[:100]...)
		},
		"distance 1, length 258": func(w *bitWriter) []byte {
			lit, dist := w.dynamic(false, abLit(285), []uint8{1})
			w.sym(lit, 'a')
			w.match(lit, dist, 258, 1)
			w.sym(lit, 'b')
			w.sym(lit, 256)
			return append(bytes.Repeat([]byte{'a'}, 259), 'b')
		},
		"overlapping matches at every short distance": func(w *bitWriter) []byte {
			want := append([]byte(nil), noise[:9]...)
			w.stored(false, want)
			w.header(false, 1)
			for d := 1; d <= 9; d++ {
				for _, length := range []int{3, 4, 7, 8, 9, 31, 258} {
					w.match(fixedLitCode, fixedDistCode, length, d)
					for i := 0; i < length; i++ {
						want = append(want, want[len(want)-d])
					}
					w.sym(fixedLitCode, int(noise[len(want)]))
					want = append(want, noise[len(want)])
				}
			}
			w.sym(fixedLitCode, 256)
			return want
		},
		"empty stored block mid-stream": func(w *bitWriter) []byte {
			w.header(false, 1)
			w.sym(fixedLitCode, 'x')
			w.sym(fixedLitCode, 256)
			w.stored(false, nil)
			w.stored(false, []byte("yz"))
			w.stored(false, nil)
			w.header(false, 1)
			w.match(fixedLitCode, fixedDistCode, 3, 3)
			w.sym(fixedLitCode, 256)
			return []byte("xyzxyz")
		},
		"codes of every length to 15": func(w *bitWriter) []byte {
			// Lengths 1..15 and a second 15 make a complete code; its long
			// end goes through the subtables of both tables.
			lens, dlens := make([]uint8, 286), make([]uint8, 30)
			for i, s := range []int{'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 256, 257, 258, 285, 'l'} {
				lens[s] = uint8(min(i+1, 15))
				dlens[2*i%29] = lens[s]
			}
			lit, dist := w.dynamic(false, lens, dlens)
			var want []byte
			for _, c := range "abcdefghijkl" {
				w.sym(lit, int(c))
				want = append(want, byte(c))
			}
			for _, m := range [][2]int{{3, 1}, {4, 12}, {258, 6}, {3, 5}, {258, 9}, {4, 3}, {258, 520}, {3, 300}} {
				w.match(lit, dist, m[0], m[1])
				for i := 0; i < m[0]; i++ {
					want = append(want, want[len(want)-m[1]])
				}
				w.sym(lit, 'l')
				want = append(want, 'l')
			}
			w.sym(lit, 256)
			return want
		},
	}
	for name, build := range cases {
		for _, tail := range [][]byte{nil, noise[1000:1600]} {
			var w bitWriter
			want := append(build(&w), tail...)
			w.stored(true, tail)
			if ref, unread, err := refInflate(w.b, len(want)); err != nil || unread != 0 || !bytes.Equal(ref, want) {
				t.Fatalf("%s: the stream is not what it was built to be: stdlib gives %d bytes, leaves %d, %v", name, len(ref), unread, err)
			}
			if got, err := ownInflate(w.b, len(want)); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s, then %d stored bytes: %v (bytes as built: %v)", name, len(tail), err, bytes.Equal(got, want))
			}
		}
	}

	// Many flushed segments: every Flush ends a block and adds an empty
	// stored one, and the bit position drifts through every alignment.
	text := []byte(strings.Repeat("level of detail, level by level; ", 400))
	for _, level := range []int{flate.NoCompression, flate.BestSpeed, flate.DefaultCompression, flate.BestCompression, flate.HuffmanOnly} {
		stream := deflated(t, text, level, 97)
		if got, err := ownInflate(stream, len(text)); err != nil || !bytes.Equal(got, text) {
			t.Errorf("level %d, flushed every 97 bytes: %v", level, err)
		}
	}
}

// TestInflateRejects: every stream here is an error, none a panic, and
// every error says it is the inflater's. n is the column the stream is
// decoded into.
func TestInflateRejects(t *testing.T) {
	lengths := func(ls ...uint8) (seq []preSym) {
		for _, l := range ls {
			seq = append(seq, preSym{sym: int(l)})
		}
		return seq
	}
	// A complete literal/length code in 257 lengths: 'a' is the bit 0,
	// end-of-block the bit 1.
	okLit := make([]uint8, 257)
	okLit['a'], okLit[256] = 1, 1
	with := func(s int, l uint8) []uint8 {
		lens := append([]uint8(nil), okLit...)
		lens[s] = l
		return lens
	}
	cases := map[string]struct {
		n     int
		build func(w *bitWriter)
	}{
		"reserved block type":           {0, func(w *bitWriter) { w.header(true, 3) }},
		"over-subscribed literal code":  {0, func(w *bitWriter) { w.dynamic(true, with('b', 1), []uint8{1}); w.bits(1, 1) }},
		"incomplete literal code":       {0, func(w *bitWriter) { w.dynamic(true, with('a', 2), []uint8{1}); w.bits(1, 1) }},
		"no end-of-block code":          {1, func(w *bitWriter) { w.dynamic(true, with('b', 1)[:256], []uint8{1, 0}); w.bits(0, 1) }},
		"incomplete distance code":      {0, func(w *bitWriter) { w.dynamic(true, okLit, []uint8{2, 2, 2}); w.bits(1, 1) }},
		"one distance code of two bits": {0, func(w *bitWriter) { w.dynamic(true, okLit, []uint8{2}); w.bits(1, 1) }},
		"over-subscribed distance code": {0, func(w *bitWriter) { w.dynamic(true, okLit, []uint8{1, 1, 1}); w.bits(1, 1) }},
		"over-subscribed code-length code": {0, func(w *bitWriter) {
			pre := plainPre
			pre[16] = 4
			w.rawDynamic(true, 0, 0, pre, append(lengths(okLit...), preSym{sym: 1}))
			w.bits(1, 1)
		}},
		"incomplete code-length code": {0, func(w *bitWriter) {
			pre := plainPre
			pre[15] = 0
			w.rawDynamic(true, 0, 0, pre, append(lengths(okLit...), preSym{sym: 1}))
			w.bits(1, 1)
		}},
		// 288 lengths follow either header: 257 + 31, a block that would
		// end at once had its counts been allowed.
		"HLIT of 287": {0, func(w *bitWriter) {
			w.rawDynamic(true, 30, 0, plainPre, lengths(append(okLit, make([]uint8, 31)...)...))
			w.bits(1, 1)
		}},
		"HDIST of 31": {0, func(w *bitWriter) {
			w.rawDynamic(true, 0, 30, plainPre, lengths(append(okLit, make([]uint8, 31)...)...))
			w.bits(1, 1)
		}},
		"repeat with nothing before it": {0, func(w *bitWriter) {
			w.rawDynamic(true, 0, 0, [19]uint8{0: 1, 1: 2, 16: 2}, []preSym{{16, 0}})
		}},
		"lengths run past HLIT+HDIST": {0, func(w *bitWriter) {
			// 258 lengths are announced: 250 zeros, then a run of 11.
			w.rawDynamic(true, 0, 0, [19]uint8{0: 1, 1: 2, 18: 2}, []preSym{{18, 127}, {18, 101}, {18, 0}})
		}},
		"LEN is not the complement of NLEN": {2, func(w *bitWriter) {
			w.stored(true, []byte("ab"))
			w.b[3] ^= 0x10
		}},
		"distance beyond the bytes produced": {8, func(w *bitWriter) {
			w.header(true, 1)
			w.sym(fixedLitCode, 'a')
			w.sym(fixedLitCode, 'b')
			w.match(fixedLitCode, fixedDistCode, 6, 3)
			w.sym(fixedLitCode, 256)
		}},
		// The same four in the unguarded body of the symbol loop: 700
		// bytes before, 1042 after.
		"far from both ends: distance beyond the bytes produced": {2000, func(w *bitWriter) {
			w.stored(false, make([]byte, 700))
			w.header(false, 1)
			w.match(fixedLitCode, fixedDistCode, 258, 701)
			w.sym(fixedLitCode, 256)
			w.stored(true, make([]byte, 1042))
		}},
		"far from both ends: distance symbol 30": {2000, func(w *bitWriter) {
			w.stored(false, make([]byte, 700))
			w.header(false, 1)
			w.sym(fixedLitCode, 285)
			w.sym(fixedDistCode, 30)
			w.sym(fixedLitCode, 256)
			w.stored(true, make([]byte, 1042))
		}},
		"far from both ends: length symbol 286": {2000, func(w *bitWriter) {
			w.stored(false, make([]byte, 700))
			w.header(false, 1)
			w.sym(fixedLitCode, 286)
			w.sym(fixedDistCode, 0)
			w.sym(fixedLitCode, 256)
			w.stored(true, make([]byte, 1299))
		}},
		"far from both ends: the unassigned half of a one-code distance tree": {2000, func(w *bitWriter) {
			w.stored(false, make([]byte, 700))
			lit, _ := w.dynamic(false, abLit(285), []uint8{1})
			w.sym(lit, 285)
			w.bits(1, 1)
			w.sym(lit, 256)
			w.stored(true, make([]byte, 1042))
		}},
		"distance symbol 30": {259, func(w *bitWriter) {
			w.header(true, 1)
			w.sym(fixedLitCode, 'a')
			w.sym(fixedLitCode, 285)
			w.sym(fixedDistCode, 30)
			w.sym(fixedLitCode, 256)
		}},
		"length symbol 286": {2, func(w *bitWriter) {
			w.header(true, 1)
			w.sym(fixedLitCode, 'a')
			w.sym(fixedLitCode, 286)
			w.sym(fixedDistCode, 0)
			w.sym(fixedLitCode, 256)
		}},
		"the unassigned half of a one-code distance tree": {4, func(w *bitWriter) {
			lit, _ := w.dynamic(true, abLit(257), []uint8{1})
			w.sym(lit, 'a')
			w.sym(lit, 257)
			w.bits(1, 1)
			w.sym(lit, 256)
		}},
		"a distance under no distance code": {4, func(w *bitWriter) {
			lit, _ := w.dynamic(true, abLit(257), []uint8{0})
			w.sym(lit, 'a')
			w.sym(lit, 257)
			w.bits(0, 1)
			w.sym(lit, 256)
		}},
		"literal past the column": {2, func(w *bitWriter) {
			w.header(true, 1)
			for _, c := range "abc" {
				w.sym(fixedLitCode, int(c))
			}
			w.sym(fixedLitCode, 256)
		}},
		"match past the column": {600, func(w *bitWriter) {
			w.stored(false, make([]byte, 400))
			w.header(true, 1)
			w.match(fixedLitCode, fixedDistCode, 201, 400)
			w.sym(fixedLitCode, 256)
		}},
		"stored block past the column":   {3, func(w *bitWriter) { w.stored(true, []byte("abcd")) }},
		"stream shorter than the column": {5, func(w *bitWriter) { w.stored(true, []byte("abcd")) }},
		"no final block":                 {4, func(w *bitWriter) { w.stored(false, []byte("abcd")) }},
		"bytes after the final block": {4, func(w *bitWriter) {
			w.stored(true, []byte("abcd"))
			w.b = append(w.b, 0)
		}},
		"a second stream after the final block": {4, func(w *bitWriter) {
			w.stored(true, []byte("abcd"))
			w.stored(true, nil)
		}},
		"empty payload":           {0, func(w *bitWriter) {}},
		"block header alone":      {0, func(w *bitWriter) { w.header(true, 2) }},
		"stored block cut in LEN": {0, func(w *bitWriter) { w.b = []byte{1, 0, 0} }},
		"stored block cut in its bytes": {4, func(w *bitWriter) {
			w.stored(true, []byte("abcd"))
			w.b = w.b[:7]
		}},
		"fixed block without an end": {1, func(w *bitWriter) {
			w.header(true, 1)
			w.sym(fixedLitCode, 'a')
		}},
	}
	for name, c := range cases {
		var w bitWriter
		c.build(&w)
		if _, err := ownInflate(w.b, c.n); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.HasPrefix(err.Error(), "inflate: ") {
			t.Errorf("%s: error %q does not say where it is from", name, err)
		}
	}

	// The headers above are rejected for what they say, not for how they
	// were spelled: the same spelling with an allowed code is a block.
	var w bitWriter
	w.rawDynamic(true, 0, 0, plainPre, append(lengths(okLit...), preSym{sym: 1}))
	w.bits(0, 1)
	w.bits(1, 1)
	if got, err := ownInflate(w.b, 1); err != nil || got[0] != 'a' {
		t.Errorf("the allowed header the rejected ones are variations of: %v", err)
	}
	// Output past the column has always read "stream longer than column".
	w = bitWriter{}
	w.stored(true, []byte("abcd"))
	if _, err := ownInflate(w.b, 3); err == nil || err.Error() != "inflate: stream longer than column" {
		t.Errorf("output past the column: %v", err)
	}
}

// TestInflateTruncatedEverywhere cuts real payloads — stored planes,
// coded planes, the closing block — at every byte: each prefix is an
// error. So it is when the column is cut as well, to the bytes the prefix
// still holds (every 13th cut: the stdlib is asked how many those are):
// a stream that has given all its column wants still has to end.
func TestInflateTruncatedEverywhere(t *testing.T) {
	schema := Uintah()
	payloads, columns := deflatePayloads(t, schema, generatorBlocks()["clustered"][5]) // 1024 records
	if len(payloads) < 4 {
		t.Fatalf("only %d deflate payloads in the block", len(payloads))
	}
	st := codecStatePool.Get()
	defer codecStatePool.Put(st)
	for pi, payload := range payloads {
		dst := make([]byte, len(columns[pi]))
		if err := st.inf.inflate(dst, payload); err != nil || !bytes.Equal(dst, columns[pi]) {
			t.Fatalf("payload %d, whole: %v", pi, err)
		}
		for k := 0; k < len(payload); k++ {
			if err := st.inf.inflate(dst, payload[:k]); err == nil {
				t.Fatalf("payload %d cut at byte %d of %d: accepted", pi, k, len(payload))
			}
			if k%13 != 0 && k < len(payload)-16 {
				continue
			}
			part, _, _ := refInflate(payload[:k], len(dst))
			if err := st.inf.inflate(dst[:len(part)], payload[:k]); err == nil {
				t.Fatalf("payload %d cut at byte %d of %d, column cut to %d: accepted", pi, k, len(payload), len(part))
			}
		}
	}
}

// checkAgainstStdlib is the differential property on one stream: what the
// inflater accepts the stdlib accepts, to the same bytes — it may be
// stricter, never laxer — and a stream the stdlib reads without error up
// to its last byte the inflater accepts too.
func checkAgainstStdlib(t testing.TB, stream []byte) {
	t.Helper()
	const limit = 1 << 22 // a few bytes of stream can ask for gigabytes
	want, unread, refErr := refInflate(stream, limit)
	if len(want) > limit {
		return
	}
	got, err := ownInflate(stream, len(want))
	switch {
	case err == nil && refErr != nil:
		t.Fatalf("accepted a stream the stdlib rejects: %v", refErr)
	case err == nil && !bytes.Equal(got, want):
		t.Fatal("accepted a stream to other bytes than the stdlib's")
	case err != nil && refErr == nil && unread == 0:
		t.Fatalf("rejected a stream the stdlib reads to its last byte: %v", err)
	}
}

// TestInflateDamagedPayloadsAgainstStdlib flips bits in the payloads of a
// 512-record block, as written now and as one flate stream per column
// (files from before the plane cut: no stored bytes for the damage to
// hide in), and holds every outcome to the stdlib's. The columns are long
// enough that the symbol loop's unguarded body decodes most of them.
func TestInflateDamagedPayloadsAgainstStdlib(t *testing.T) {
	payloads, columns := deflatePayloads(t, Uintah(), generatorBlocks()["clustered"][4])
	for _, c := range columns {
		payloads = append(payloads, refDeflateColumn(t, c))
	}
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 3000; trial++ {
		m := append([]byte(nil), payloads[trial%len(payloads)]...)
		for k := 0; k < 1+r.Intn(3); k++ {
			m[r.Intn(len(m))] ^= byte(1 << r.Intn(8))
		}
		checkAgainstStdlib(t, m)
	}
}

// FuzzInflate holds the in-house inflater to compress/flate from both
// sides: the input as a stream, by checkAgainstStdlib; the input as plain
// bytes, in that whatever a flate.Writer makes of them — at any level,
// flushed anywhere — inflates back.
func FuzzInflate(f *testing.F) {
	schema := Uintah()
	levels := []int{flate.NoCompression, flate.BestSpeed, flate.DefaultCompression, flate.BestCompression, flate.HuffmanOnly}
	for _, b := range []*Buffer{
		Clustered(schema, geom.UnitBox(), 200, 4, 1, 0),
		Uniform(schema, geom.UnitBox(), 200, 1, 0),
	} {
		records := b.Encode()
		payloads, _ := deflatePayloads(f, schema, records)
		for _, p := range payloads {
			f.Add(p, flate.BestSpeed, 0)
		}
		for _, level := range levels {
			f.Add(deflated(f, shuffledColumn(schema, records, 0)[6*600:], level, 0), level, 500)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, level, segment int) {
		checkAgainstStdlib(t, data)
		if level < flate.HuffmanOnly || level > flate.BestCompression {
			level = flate.BestSpeed
		}
		if segment > 0 {
			segment = max(segment, len(data)/32) // a flush a byte is a slow way to learn nothing more
		}
		stream := deflated(t, data, level, max(0, segment))
		if got, err := ownInflate(stream, len(data)); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("level %d, flushed every %d bytes: a flate.Writer's stream does not inflate back: %v", level, segment, err)
		}
	})
}

// BenchmarkInflate is the decoder beside its reference on what it is
// for: the deflate payloads of one full block (8192 Uintah records in
// LOD order) of the clustered generator, per shuffled byte.
func BenchmarkInflate(b *testing.B) {
	schema := Uintah()
	blocks := generatorBlocks()["clustered"]
	payloads, columns := deflatePayloads(b, schema, blocks[len(blocks)-2])
	var total int
	for _, c := range columns {
		total += len(c)
	}
	dst := make([]byte, total)
	b.Run("own", func(b *testing.B) {
		st := codecStatePool.Get()
		defer codecStatePool.Put(st)
		b.SetBytes(int64(total))
		for i := 0; i < b.N; i++ {
			for pi, p := range payloads {
				if err := st.inf.inflate(dst[:len(columns[pi])], p); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		var src bytes.Reader
		zr := flate.NewReader(&src)
		b.SetBytes(int64(total))
		for i := 0; i < b.N; i++ {
			for pi, p := range payloads {
				src.Reset(p)
				if err := zr.(flate.Resetter).Reset(&src, nil); err != nil {
					b.Fatal(err)
				}
				if _, err := io.ReadFull(zr, dst[:len(columns[pi])]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
