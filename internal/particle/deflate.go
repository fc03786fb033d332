package particle

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// The deflater of the shuffle+deflate codec, the mirror image of
// inflate.go: RFC 1951 from one byte slice onto another, for the one
// input it is ever given — the byte planes of a shuffled column, whose low
// mantissa planes are noise and whose sign/exponent planes are nearly
// constant. The payload is one stream cut at the planes (and, past
// blockMax bytes, inside them); every piece is coded alone (DESIGN.md
// §12.2): a piece whose sampled bytes look like noise is stored unasked
// (noisePlane); any other is tokenized (tokenize), the Huffman codes of
// its tokens — and, unless the matches plainly pay, of its bytes as
// literals alone — are built (plan), and with the exact size of the piece
// as stored, fixed-code and dynamic-code blocks known before a bit is
// written, the smallest goes out (piece).
//
// Blocks follow each other bit by bit through one 64-bit buffer — a stored
// block pads itself to its byte boundary — and the stream ends in one
// final empty stored block, on the payload's last byte. Every piece costs
// at most its stored form from wherever the stream stands, so a payload
// never exceeds the column stored (5 bytes per 65535, and 5). The bytes
// are a function of the column alone: the hash table is never cleared,
// its entries carry an epoch that moves past every piece, so what an
// earlier piece, column or caller left reads as empty. There is no level
// and nothing to tune. Any inflater reads the stream; compress/flate is
// the reference in the tests.

const (
	hashBits = 13
	minMatch = 4
	maxMatch = 258
	maxDist  = 32768
	// blockMax is the most bytes one piece — one classification, one pair
	// of codes — covers. A plane of a data file's block is at most 8192
	// records of nine components: one piece.
	blockMax    = 1 << 17
	maxStored   = 0xffff // the most bytes one stored block carries
	endOfBlock  = 256
	preSyms     = 19
	maxPreLen   = 7
	maxTreeSyms = maxLitSyms + maxDistSyms
)

// lenSymOf is the symbol, less 257, of a match length less 3; litProto has
// the symbol's first length and its extra bits.
var lenSymOf = func() (sym [256]uint8) {
	for l, s := 0, 0; l < 256; l++ {
		for s < 28 && int(litProto[258+s]>>16) <= l+3 {
			s++
		}
		sym[l] = uint8(s)
	}
	return
}()

// distSym returns the symbol of a distance less 1 and how many extra bits
// follow it; their value is d's low bits.
func distSym(d uint32) (sym uint32, extra uint) {
	if d < 4 {
		return d, 0
	}
	n := uint(bits.Len32(d)) - 1
	return uint32(2*n) + d>>(n-1)&1, n - 1
}

// codeEntries fills code with the canonical Huffman code of lens: per
// symbol its bits, first lowest, and above bit 16 their number.
func codeEntries(code []uint32, lens []uint8) {
	var count, next [maxCodeLen + 1]uint32
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l, c := 1, uint32(0); l <= maxCodeLen; l++ {
		c = (c + count[l-1]) << 1
		next[l] = c
	}
	for s, l := range lens {
		code[s] = 0
		if l != 0 {
			code[s] = uint32(bits.Reverse16(uint16(next[l]))>>(16-l)) | uint32(l)<<16
			next[l]++
		}
	}
}

// The fixed code (BTYPE=01) on the encoder's side.
var fixedLitEnc, fixedDistEnc = func() (lit [288]uint32, dist [maxDistSyms]uint32) {
	codeEntries(lit[:], fixedLitLens[:])
	for s := range dist {
		dist[s] = uint32(bits.Reverse8(uint8(s))>>3) | 5<<16
	}
	return
}()

// coding is one way to code a piece's tokens: the two codes, the dynamic
// header that would send them and its size in bits, and the size of the
// whole block under the fixed code and under these.
type coding struct {
	litLens        [maxLitSyms]uint8
	distLens       [maxDistSyms]uint8
	preLens        [preSyms]uint8
	runs           [maxTreeSyms]uint16 // the codes' lengths run-length coded: symbol | repeat bits << 8
	nruns          int
	nlit, ndist    int // how many lengths of either code the header sends,
	npre           int // and of the code they are sent in
	header         uint64
	fixed, dynamic uint64
}

func (c *coding) size() uint64 { return min(c.fixed, c.dynamic) }

// deflater is the encoder's state. It hangs off the pooled codecState by
// pointer and is built by the first encode — a process that only decodes
// never pays for it: 39 KiB, 32 of them the hash table, and the matches of
// the largest piece seen.
type deflater struct {
	tab   [1 << hashBits]uint32 // epoch + where in the piece a hash was last seen
	epoch uint32                // entries below it are another piece's

	// The piece as tokenize leaves it: its matches, each with the count of
	// literals before it, and how often every symbol occurs.
	seqs     []uint64 // literals<<32 | (length-3)<<16 | distance-1
	litFreq  [maxLitSyms]uint32
	distFreq [maxDistSyms]uint32

	plans   [2]coding // with the matches, and as literals alone
	litEnc  [288]uint32
	distEnc [maxDistSyms]uint32
	tree    [maxTreeSyms]uint8 // treeHeader's scratch
	keys    [maxLitSyms]uint32 // codeLengths'
	weight  [2 * maxLitSyms]uint32
	parent  [2 * maxLitSyms]uint16

	out []byte // the payload so far, whole bytes
	bb  uint64 // bits not yet in out, first lowest
	bn  uint   // how many: under 8 between calls
}

// deflatePlanes writes the deflate stream of shuf, planes byte planes of
// equal length, onto dst[:0].
func (d *deflater) deflatePlanes(dst, shuf []byte, planes int) []byte {
	d.out, d.bb, d.bn = dst[:0], 0, 0
	n := len(shuf) / planes
	for p := 0; p < planes && n > 0; p++ {
		for plane := shuf[p*n : (p+1)*n]; len(plane) > 0; {
			k := min(len(plane), blockMax)
			d.piece(plane[:k])
			plane = plane[k:]
		}
	}
	d.put(1, 3)       // BFINAL=1, stored, empty,
	d.put(0, -d.bn&7) // from the next byte boundary
	out := append(d.out, 0, 0, 0xff, 0xff)
	d.out = nil
	return out
}

// piece codes src, at most blockMax bytes, in the form that costs least.
func (d *deflater) piece(src []byte) {
	if noisePlane(src) {
		d.stored(src)
		return
	}
	d.tokenize(src)
	c := &d.plans[0]
	d.plan(c, &d.litFreq, &d.distFreq)
	// A literal costs a bit at least: matches that bring the piece under
	// that cannot lose to literals alone. Others can.
	if alt := &d.plans[1]; len(d.seqs) > 0 && c.size() > uint64(len(src)) {
		h, _ := histogram(src, 8)
		byteFreq := [maxLitSyms]uint32{endOfBlock: 1}
		copy(byteFreq[:], h[:])
		d.plan(alt, &byteFreq, &[maxDistSyms]uint32{})
		if alt.size() < c.size() {
			c, d.seqs = alt, d.seqs[:0]
		}
	}
	switch {
	case d.storedBits(len(src)) <= c.size():
		d.stored(src)
	case c.fixed <= c.dynamic:
		d.put(1<<1, 3)
		d.symbols(src, c.fixed-3, &fixedLitEnc, &fixedDistEnc)
	default:
		d.put(2<<1, 3)
		d.putTreeHeader(c)
		codeEntries(d.litEnc[:c.nlit], c.litLens[:c.nlit])
		codeEntries(d.distEnc[:c.ndist], c.distLens[:c.ndist])
		d.symbols(src, c.dynamic-3-c.header, &d.litEnc, &d.distEnc)
	}
}

// plan fills c for a piece with these symbol frequencies.
func (d *deflater) plan(c *coding, litFreq *[maxLitSyms]uint32, distFreq *[maxDistSyms]uint32) {
	d.codeLengths(c.litLens[:], litFreq[:], maxCodeLen)
	d.codeLengths(c.distLens[:], distFreq[:], maxCodeLen)
	c.nlit, c.ndist = maxLitSyms, maxDistSyms
	for c.nlit > endOfBlock+1 && c.litLens[c.nlit-1] == 0 {
		c.nlit--
	}
	for c.ndist > 1 && c.distLens[c.ndist-1] == 0 {
		c.ndist--
	}
	if c.distLens[0] == 0 && c.ndist == 1 {
		// No match: one distance code of one bit, never used, is what
		// compress/flate sends and every inflater takes.
		c.distLens[0] = 1
	}
	d.treeHeader(c)
	c.fixed, c.dynamic = 3, 3+c.header
	var extra uint64
	for s, f := range litFreq[:c.nlit] {
		c.fixed += uint64(f) * uint64(fixedLitLens[s])
		c.dynamic += uint64(f) * uint64(c.litLens[s])
	}
	for s, f := range litFreq[endOfBlock+1 : c.nlit] {
		extra += uint64(f) * uint64(litProto[endOfBlock+1+s]&63)
	}
	for s, f := range distFreq[:c.ndist] {
		c.fixed += uint64(f) * 5
		c.dynamic += uint64(f) * uint64(c.distLens[s])
		extra += uint64(f) * uint64(max(0, s/2-1))
	}
	c.fixed, c.dynamic = c.fixed+extra, c.dynamic+extra
}

// noisePlane reports whether a piece is too close to uniform noise for
// coding it to be tried: its collision entropy -log2(sum p(b)^2) is above
// 7 bits per byte. The collision entropy never exceeds the order-0
// entropy, so a Huffman code would have cost more than 7/8 of the piece —
// at most an eighth is given up, against tokenizing and coding time on
// both sides. From 4096 bytes up the sum is estimated from an eighth of
// the piece, the first word of every 64 bytes (words, not every eighth
// byte: a stride shares factors with a field's component count and would
// see one component only); sum c(c-1) / m(m-1) over m samples is the
// unbiased estimate, and the test is exact in integers. It is a shortcut,
// not the decision: a piece that passes on is stored all the same when
// that is its cheapest form. What it gives up: uniformly distributed bytes
// that repeat at a distance, and structure that hides from the sample. On
// disk a plane holds records in LOD order, a seeded shuffle, and neither
// survives one.
func noisePlane(piece []byte) bool {
	step := 8
	if len(piece) >= 4096 {
		step = 64
	}
	h, m := histogram(piece, step)
	var pairs uint64
	for _, c := range h {
		pairs += uint64(c) * (uint64(c) - 1)
	}
	return 128*pairs < m*(m-1)
}

// histogram counts the first word of every step bytes of p — at step 8,
// all of p — and returns how many bytes that was.
func histogram(p []byte, step int) (h [256]uint32, m uint64) {
	var t [4][256]uint32 // consecutive equal bytes do not wait on one counter
	i := 0
	for ; i+8 <= len(p); i, m = i+step, m+8 {
		w := binary.LittleEndian.Uint64(p[i:])
		t[0][byte(w)]++
		t[1][byte(w>>8)]++
		t[2][byte(w>>16)]++
		t[3][byte(w>>24)]++
		t[0][byte(w>>32)]++
		t[1][byte(w>>40)]++
		t[2][byte(w>>48)]++
		t[3][byte(w>>56)]++
	}
	if step == 8 {
		for _, b := range p[i:] {
			t[0][b]++
			m++
		}
	}
	for b := range h {
		h[b] = t[0][b] + t[1][b] + t[2][b] + t[3][b]
	}
	return h, m
}

func hash4(v uint32) uint32 { return v * 2654435761 >> (32 - hashBits) }

// tokenize finds src's matches and counts its symbols: a 4-byte hash
// probed once per position, matches of 4 to 258 bytes at most 32768 back
// and inside src only.
func (d *deflater) tokenize(src []byte) {
	if d.epoch == 0 || d.epoch > math.MaxUint32-blockMax {
		clear(d.tab[:])
		d.epoch = 1 // no entry of a cleared table is a position
	}
	epoch := d.epoch
	d.epoch += uint32(len(src))
	d.seqs = d.seqs[:0]
	d.litFreq, d.distFreq = [maxLitSyms]uint32{}, [maxDistSyms]uint32{}

	lit, pos, miss := 0, 0, 0
	for pos+minMatch <= len(src) {
		v := binary.LittleEndian.Uint32(src[pos:])
		h := hash4(v)
		at := d.tab[h] - epoch // wraps far past pos when the entry is another piece's
		d.tab[h] = epoch + uint32(pos)
		c := int(at)
		if at >= uint32(pos) || pos-c > maxDist || binary.LittleEndian.Uint32(src[c:]) != v {
			// Noise inside a piece that is not noise: every 32 misses in a
			// row widen the step, the next match narrows it again.
			miss++
			pos += 1 + miss>>5
			continue
		}
		n, most := minMatch, min(len(src)-pos, maxMatch)
		for n+8 <= most {
			if x := binary.LittleEndian.Uint64(src[pos+n:]) ^ binary.LittleEndian.Uint64(src[c+n:]); x != 0 {
				n += bits.TrailingZeros64(x) >> 3
				most = n // the match ends here
				break
			}
			n += 8
		}
		for n < most && src[pos+n] == src[c+n] {
			n++
		}
		d.literals(src[lit:pos])
		d.seqs = append(d.seqs, uint64(pos-lit)<<32|uint64(n-3)<<16|uint64(pos-c-1))
		d.litFreq[endOfBlock+1+int(lenSymOf[n-3])]++
		ds, _ := distSym(uint32(pos - c - 1))
		d.distFreq[ds]++
		pos += n
		lit, miss = pos, 0
		// The match's last byte is findable too: a run goes on at distance 1.
		if pos+3 <= len(src) {
			d.tab[hash4(binary.LittleEndian.Uint32(src[pos-1:]))] = epoch + uint32(pos-1)
		}
	}
	d.literals(src[lit:])
	d.litFreq[endOfBlock] = 1
}

// literals counts a run of literals.
func (d *deflater) literals(run []byte) {
	for _, b := range run {
		d.litFreq[b]++
	}
}

// codeLengths sets lens[s] to the length of symbol s in a Huffman code of
// at most limit bits for the frequencies freq (under 1<<23 each): the
// tree is built over the sorted frequencies with two queues, and its
// levels below the limit are folded up pair by pair, each pair's parent
// taking a leaf from higher up down with it (JPEG Annex K.3), which keeps
// the code complete at every step. One symbol alone gets one bit.
func (d *deflater) codeLengths(lens []uint8, freq []uint32, limit int) {
	keys := d.keys[:0]
	for s, f := range freq {
		lens[s] = 0
		if f != 0 {
			keys = append(keys, f<<9|uint32(s))
		}
	}
	n := len(keys)
	if n < 2 {
		if n == 1 {
			lens[keys[0]&511] = 1
		}
		return
	}
	slices.Sort(keys)

	// Nodes 0 to n-1 are the leaves, rarest first, the others the inner
	// nodes in the order they are made, which is by weight too: the two
	// lightest nodes not yet paired are always at the heads of the two runs.
	w, up := d.weight[:2*n-1], d.parent[:2*n-1]
	for i, k := range keys {
		w[i] = k >> 9
	}
	for leaf, inner, next := 0, n, n; next < len(w); next++ {
		w[next] = 0
		for pair := 0; pair < 2; pair++ {
			pick := inner
			if leaf < n && (inner == next || w[leaf] <= w[inner]) {
				pick = leaf
				leaf++
			} else {
				inner++
			}
			w[next] += w[pick]
			up[pick] = uint16(next)
		}
	}
	// Depths from the root down, in place of the weights; leaves per depth.
	// Weights under 1<<32 in all make a tree of 46 levels at most (they
	// grow like the Fibonacci numbers).
	var count [48]int
	deepest := 0
	w[len(w)-1] = 0
	for i := len(w) - 2; i >= 0; i-- {
		w[i] = w[up[i]] + 1
		if i < n {
			count[w[i]]++
			deepest = max(deepest, int(w[i]))
		}
	}
	for i := deepest; i > limit; i-- {
		for count[i] > 0 {
			j := i - 2
			for count[j] == 0 {
				j--
			}
			count[i] -= 2
			count[i-1]++
			count[j+1] += 2
			count[j]--
		}
	}
	// The rarest symbols take the longest codes.
	i := 0
	for l := min(deepest, limit); l > 0; l-- {
		for c := count[l]; c > 0; c-- {
			lens[keys[i]&511] = uint8(l)
			i++
		}
	}
}

// treeHeader lays out the header of a dynamic block for c's codes: their
// lengths run-length coded into c.runs, the code-length code built over
// the runs' symbols, its size in c.header.
func (d *deflater) treeHeader(c *coding) {
	tree := d.tree[:c.nlit+c.ndist]
	copy(tree, c.litLens[:c.nlit])
	copy(tree[c.nlit:], c.distLens[:c.ndist])
	var preFreq [preSyms]uint32
	c.nruns = 0
	run := func(sym, repeat int) {
		c.runs[c.nruns] = uint16(sym | repeat<<8)
		c.nruns++
		preFreq[sym]++
	}
	for i := 0; i < len(tree); {
		l, j := int(tree[i]), i+1
		for j < len(tree) && tree[j] == tree[i] {
			j++
		}
		n := j - i
		i = j
		if l == 0 {
			for ; n >= 11; n -= min(n, 138) {
				run(18, min(n, 138)-11)
			}
			if n >= 3 {
				run(17, n-3)
				n = 0
			}
		} else {
			run(l, 0)
			for n--; n >= 3; n -= min(n, 6) {
				run(16, min(n, 6)-3)
			}
		}
		for ; n > 0; n-- {
			run(l, 0)
		}
	}
	d.codeLengths(c.preLens[:], preFreq[:], maxPreLen)
	c.npre = preSyms
	for c.npre > 4 && c.preLens[precodeOrder[c.npre-1]] == 0 {
		c.npre--
	}
	c.header = 14 + 3*uint64(c.npre) + 2*uint64(preFreq[16]) + 3*uint64(preFreq[17]) + 7*uint64(preFreq[18])
	for s, f := range preFreq {
		c.header += uint64(f) * uint64(c.preLens[s])
	}
}

// putTreeHeader writes the header treeHeader laid out.
func (d *deflater) putTreeHeader(c *coding) {
	d.put(uint64(c.nlit-257), 5)
	d.put(uint64(c.ndist-1), 5)
	d.put(uint64(c.npre-4), 4)
	for _, s := range precodeOrder[:c.npre] {
		d.put(uint64(c.preLens[s]), 3)
	}
	var enc [preSyms]uint32
	codeEntries(enc[:], c.preLens[:])
	for _, r := range c.runs[:c.nruns] {
		sym := r & 0xff
		d.put(uint64(enc[sym]&0xffff), uint(enc[sym]>>16))
		if sym >= 16 {
			d.put(uint64(r>>8), [3]uint{2, 3, 7}[sym-16])
		}
	}
}

// put appends the low n bits of v, n at most 16, and moves the whole
// bytes out.
func (d *deflater) put(v uint64, n uint) {
	d.bb |= v << d.bn
	for d.bn += n; d.bn >= 8; d.bn -= 8 {
		d.out = append(d.out, byte(d.bb))
		d.bb >>= 8
	}
}

// stored writes src as stored blocks.
func (d *deflater) stored(src []byte) {
	for len(src) > 0 {
		k := min(len(src), maxStored)
		d.put(0, 3)
		d.put(0, -d.bn&7) // to the byte boundary
		d.out = append(d.out, byte(k), byte(k>>8), ^byte(k), ^byte(k>>8))
		d.out = append(d.out, src[:k]...)
		src = src[k:]
	}
}

// storedBits is what stored would add to the stream as it stands for n
// bytes: the first header pads to the boundary ahead, the others are a byte.
func (d *deflater) storedBits(n int) uint64 {
	blocks := uint64(n+maxStored-1) / maxStored
	return (uint64(d.bn)+3+7)&^7 - uint64(d.bn) + (blocks-1)*8 + blocks*32 + uint64(n)*8
}

// symbols writes the piece's tokens and the end-of-block symbol, size bits
// in all, under the two codes. The bit buffer is stored eight bytes at a
// time, ahead of the stream's end, into room made once.
func (d *deflater) symbols(src []byte, size uint64, lit *[288]uint32, dist *[maxDistSyms]uint32) {
	pos := len(d.out)
	out := slices.Grow(d.out, int((uint64(d.bn)+size)>>3)+16)
	out = out[:cap(out)]
	bb, bn, i := d.bb, d.bn, 0
	for k := 0; ; k++ {
		end := len(src) // after the last match, the literals left
		if k < len(d.seqs) {
			end = i + int(d.seqs[k]>>32)
		}
		for ; i < end; i++ {
			if bb, bn = addCode(bb, bn, lit[src[i]]); bn >= 48 {
				pos, bb, bn = storeBits(out, pos, bb, bn)
			}
		}
		if k == len(d.seqs) {
			break
		}
		// With at most 7 bits pending a match fits: 15+5+15+13 of its own.
		pos, bb, bn = storeBits(out, pos, bb, bn)
		n, dm := uint32(d.seqs[k]>>16)&0xff, uint32(d.seqs[k])&0xffff
		ls := endOfBlock + 1 + int(lenSymOf[n])
		bb, bn = addCode(bb, bn, lit[ls])
		bb, bn = bb|uint64(n+3-litProto[ls]>>16)<<bn, bn+uint(litProto[ls]&63)
		ds, xb := distSym(dm)
		bb, bn = addCode(bb, bn, dist[ds])
		bb, bn = bb|uint64(dm&(1<<xb-1))<<bn, bn+xb
		pos, bb, bn = storeBits(out, pos, bb, bn)
		i += int(n) + 3
	}
	bb, bn = addCode(bb, bn, lit[endOfBlock])
	pos, d.bb, d.bn = storeBits(out, pos, bb, bn)
	d.out = out[:pos]
}

// addCode puts a code table entry's bits above the bn bits of bb.
func addCode(bb uint64, bn uint, e uint32) (uint64, uint) {
	return bb | uint64(e&0xffff)<<bn, bn + uint(e>>16)
}

// storeBits stores bb at out[pos:] and keeps the bits of its last, partial byte.
func storeBits(out []byte, pos int, bb uint64, bn uint) (int, uint64, uint) {
	binary.LittleEndian.PutUint64(out[pos:], bb)
	return pos + int(bn>>3), bb >> (bn &^ 7), bn & 7
}
