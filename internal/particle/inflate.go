package particle

import (
	"encoding/binary"
	"errors"
	"math/bits"
)

// The inflater of the shuffle+deflate codec: RFC 1951 from one byte slice
// into another. A payload is whole in memory and decodes to a column
// whose length the frame already fixed, so none of what a streaming
// inflater carries is needed — no io.Reader pulled a byte at a time, no
// 32 KiB window beside the output, no tables allocated per block. The
// payload is read in place through a 64-bit bit buffer refilled eight
// bytes at a time, matches are copied inside the destination (which is
// its own window), a stored block — six of the eight planes of every
// float64 field — is one copy out of the payload, and the Huffman tables
// live in the pooled codecState.
//
// It accepts no stream compress/flate rejects (FuzzInflate holds the two
// together) and is stricter where a stream cannot be a payload: a
// literal/length code without an end-of-block symbol is refused at the
// header, and the stream must reach its final block, produce exactly
// len(dst) bytes and end at the payload's last byte. Hostile input is an
// error, never a panic.

// A decode table is indexed by the next primary bits of the stream; codes
// longer than that go through a subtable the primary entry points at.
// litTabSize and distTabSize are the most entries a complete code over
// 288 (32) symbols of at most 15 bits can need at these widths — zlib's
// `enough 288 10 15` and `enough 32 8 15`.
const (
	litBits     = 10
	distBits    = 8
	preBits     = 7
	litTabSize  = 1334
	distTabSize = 402
	maxCodeLen  = 15
	maxLitSyms  = 286
	maxDistSyms = 30
)

// A table entry:
//
//	bits 0-5    how many bits of the bit buffer the entry uses up: the
//	            code (in a subtable, the rest of it) and any extra bits
//	bits 8-11   how many of those are code; in a subtable pointer, the
//	            index bits of the subtable
//	bits 12-15  kind: entLit, or entOdd alone (no such code) or with
//	            entSub or entEnd; none of them is a length or a distance
//	bits 16-31  literal byte, length or distance base, subtable start,
//	            or (code-length code) the symbol
const (
	entLit = 1 << 12
	entOdd = 1 << 13 // anything the symbol loop leaves its straight path for
	entSub = 1 << 14
	entEnd = 1 << 15

	entLenUnit = 1<<8 | 1 // added once per code bit
)

var (
	errInflateTruncated = errors.New("inflate: payload ends inside the stream")
	errInflateBlockType = errors.New("inflate: reserved block type")
	errInflateStored    = errors.New("inflate: stored block length fails its check")
	errInflateTrees     = errors.New("inflate: bad code lengths")
	errInflateCode      = errors.New("inflate: unassigned code")
	errInflateDistance  = errors.New("inflate: match reaches before the column")
	errInflateLong      = errors.New("inflate: stream longer than column")
	errInflateShort     = errors.New("inflate: stream shorter than column")
	errInflateTrailing  = errors.New("inflate: payload continues after the final block")
)

// litProto and distProto hold, per symbol, the entry less its code
// length: kind, base and — already counted in the low bits — extra bits.
var litProto, distProto, preProto = func() (lit [288]uint32, dist [32]uint32, pre [19]uint32) {
	for s := 0; s < 256; s++ {
		lit[s] = entLit | uint32(s)<<16
	}
	lit[256] = entOdd | entEnd
	base := 3
	for s := 257; s < 285; s++ {
		xb := max(0, (s-261)/4)
		lit[s] = uint32(base)<<16 | uint32(xb)
		base += 1 << xb
	}
	lit[285] = 258 << 16
	lit[286], lit[287] = entOdd, entOdd // in the fixed code, never valid
	base = 1
	for s := 0; s < maxDistSyms; s++ {
		xb := max(0, (s-2)/2)
		dist[s] = uint32(base)<<16 | uint32(xb)
		base += 1 << xb
	}
	dist[30], dist[31] = entOdd, entOdd
	for s := range pre {
		pre[s] = uint32(s) << 16
	}
	return
}()

// fixedLitLens are the literal/length code lengths of the fixed code
// (BTYPE=01); its distance codes are five bits each.
var fixedLitLens = func() (lens [288]uint8) {
	for s := range lens {
		switch {
		case s < 144:
			lens[s] = 8
		case s < 256:
			lens[s] = 9
		case s < 280:
			lens[s] = 7
		default:
			lens[s] = 8
		}
	}
	return
}()

// The decode tables of the fixed code, built once.
var fixedLit, fixedDist = func() (lit [litTabSize]uint32, dist [distTabSize]uint32) {
	buildTable(lit[:], litBits, fixedLitLens[:], litProto[:])
	var five [32]uint8
	for s := range five {
		five[s] = 5
	}
	buildTable(dist[:], distBits, five[:], distProto[:])
	return
}()

// buildTable fills tab with the decode table of the canonical Huffman
// code that gives symbol s lens[s] bits (0: no code). It reports whether
// the lengths are a code the format allows: complete, or — as zlib and
// compress/flate have it — one code of one bit, or no code at all (a
// block of literals only sends such a distance code); what such a code
// leaves unassigned decodes to entOdd. A complete code assigns every
// entry it can reach, so nothing of an earlier table has to be cleared.
func buildTable(tab []uint32, primary int, lens []uint8, proto []uint32) bool {
	var count [maxCodeLen + 1]int
	for _, l := range lens {
		count[l]++
	}
	used := len(lens) - count[0]
	left := 1 // code space not yet given out, in units of the current length
	for l := 1; l <= maxCodeLen; l++ {
		if left = left<<1 - count[l]; left < 0 {
			return false // over-subscribed
		}
	}
	if left > 0 && (used > 1 || used != count[1]) {
		return false // incomplete
	}

	// Symbols in code order: by length, then by value.
	var offs [maxCodeLen + 2]int
	for l := 1; l <= maxCodeLen; l++ {
		offs[l+1] = offs[l] + count[l]
	}
	var sorted [288]uint16
	for s, l := range lens {
		if l != 0 {
			sorted[offs[l]] = uint16(s)
			offs[l]++
		}
	}

	// Codes are read from the stream first bit first, so a table indexed
	// by the next bits holds a code at its bit-reversal and at every index
	// that continues it. The table grows a bit at a time: the table of the
	// shorter codes, twice over, is all their continuations; the codes of
	// the new length then take one entry each.
	tab[0] = entOdd
	code, i := 0, 0
	for l := 1; l <= primary; l++ {
		copy(tab[1<<(l-1):1<<l], tab)
		for c := count[l]; c > 0; c-- {
			tab[bits.Reverse16(uint16(code))>>(16-l)] = proto[sorted[i]] + uint32(l)*entLenUnit
			code, i = code+1, i+1
		}
		code <<= 1
	}
	// Longer codes: those sharing their first primary bits are consecutive
	// and share a subtable as wide as the longest of them needs.
	next, prefix, sub, subBits := 1<<primary, -1, 0, 0
	for l := primary + 1; l <= maxCodeLen; l++ {
		for c := count[l]; c > 0; c-- {
			rev := int(bits.Reverse16(uint16(code)) >> (16 - l))
			if p := rev & (1<<primary - 1); p != prefix {
				// The codes still to come fill the subtable exactly: widen
				// it until those of each further length fit.
				subBits = l - primary
				for space := c; space < 1<<subBits; {
					subBits++
					space = space<<1 + count[primary+subBits]
				}
				if next+1<<subBits > len(tab) {
					return false
				}
				prefix, sub = p, next
				next += 1 << subBits
				tab[p] = entOdd | entSub | uint32(sub)<<16 | uint32(subBits)<<8 | uint32(primary)
			}
			e := proto[sorted[i]] + uint32(l-primary)*entLenUnit
			for j := rev >> primary; j < 1<<subBits; j += 1 << (l - primary) {
				tab[sub+j] = e
			}
			code, i = code+1, i+1
		}
		code <<= 1
	}
	return true
}

// inflater is the decoder's state: the tables of the block being decoded
// and, for the length of one inflate call, the stream position. It lives
// in the pooled codecState (7.7 KiB) and allocates nothing.
type inflater struct {
	lit  [litTabSize]uint32
	dist [distTabSize]uint32
	pre  [1 << preBits]uint32
	lens [maxLitSyms + maxDistSyms]uint8

	src, dst []byte
	pos, out int    // next byte of src to load, next byte of dst to write
	bb       uint64 // bits loaded and not yet used, next bit lowest
	bn       uint   // how many of them count; any above are src[pos:]'s own
}

// inflate decodes the deflate stream src into dst. The stream must end
// with its final block, fill dst exactly and use src up.
func (z *inflater) inflate(dst, src []byte) error {
	z.src, z.dst, z.pos, z.out, z.bb, z.bn = src, dst, 0, 0, 0, 0
	err := z.blocks()
	z.src, z.dst = nil, nil // the pool must not hold on to a caller's bytes
	return err
}

func (z *inflater) blocks() error {
	for final := false; !final; {
		z.fill()
		if z.bn < 3 {
			return errInflateTruncated
		}
		final = z.bb&1 != 0
		typ := z.bb >> 1 & 3
		z.bb, z.bn = z.bb>>3, z.bn-3
		var err error
		switch typ {
		case 0:
			err = z.stored()
		case 1:
			err = z.huffman(&fixedLit, &fixedDist)
		case 2:
			if err = z.trees(); err == nil {
				err = z.huffman(&z.lit, &z.dist)
			}
		default:
			err = errInflateBlockType
		}
		if err != nil {
			return err
		}
	}
	if z.out != len(z.dst) {
		return errInflateShort
	}
	if z.pos-int(z.bn>>3) != len(z.src) {
		return errInflateTrailing
	}
	return nil
}

// fill loads bits until at least 56 count or src is used up. Away from
// the end of src it is one load: the eight bytes at pos are ORed in above
// the bits that count, and pos moves past the whole bytes that fit; what
// is left of the eighth stays in bb uncounted, where the next load ORs
// the same bits again.
func (z *inflater) fill() {
	if z.pos+8 <= len(z.src) {
		z.bb |= binary.LittleEndian.Uint64(z.src[z.pos:]) << (z.bn & 63)
		z.pos += int(63-z.bn) >> 3
		z.bn |= 56
		return
	}
	for z.bn < 56 && z.pos < len(z.src) {
		z.bb |= uint64(z.src[z.pos]) << (z.bn & 63)
		z.pos++
		z.bn += 8
	}
}

// stored copies one stored block: from the next byte boundary LEN, its
// complement and LEN bytes.
func (z *inflater) stored() error {
	z.pos -= int(z.bn >> 3) // whole bytes loaded and not used go back
	z.bb, z.bn = 0, 0
	src := z.src[z.pos:]
	if len(src) < 4 {
		return errInflateTruncated
	}
	n := int(binary.LittleEndian.Uint16(src))
	if n != int(^binary.LittleEndian.Uint16(src[2:])) {
		return errInflateStored
	}
	if n > len(src)-4 {
		return errInflateTruncated
	}
	if n > len(z.dst)-z.out {
		return errInflateLong
	}
	copy(z.dst[z.out:], src[4:4+n])
	z.pos, z.out = z.pos+4+n, z.out+n
	return nil
}

// precodeOrder is the order a dynamic block sends the lengths of its
// code-length code in.
var precodeOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// trees reads the header of a dynamic block into z.lit and z.dist.
func (z *inflater) trees() error {
	z.fill()
	if z.bn < 14 {
		return errInflateTruncated
	}
	nlit, ndist, npre := 257+int(z.bb&31), 1+int(z.bb>>5&31), 4+int(z.bb>>10&15)
	z.bb, z.bn = z.bb>>14, z.bn-14
	if nlit > maxLitSyms || ndist > maxDistSyms {
		return errInflateTrees
	}
	var preLens [19]uint8
	for _, s := range precodeOrder[:npre] {
		if z.bn < 3 {
			if z.fill(); z.bn < 3 {
				return errInflateTruncated
			}
		}
		preLens[s] = uint8(z.bb & 7)
		z.bb, z.bn = z.bb>>3, z.bn-3
	}
	if !buildTable(z.pre[:], preBits, preLens[:], preProto[:]) {
		return errInflateTrees
	}

	// The two codes' lengths are one run-length coded sequence.
	lens := z.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		if z.bn < preBits+7 {
			z.fill()
		}
		e := z.pre[z.bb&(1<<preBits-1)]
		if e&entOdd != 0 {
			return errInflateCode
		}
		n := uint(e & 63)
		if n > z.bn {
			return errInflateTruncated
		}
		z.bb, z.bn = z.bb>>n, z.bn-n
		s := e >> 16
		if s < 16 {
			lens[i] = uint8(s)
			i++
			continue
		}
		var rep, xb uint
		var l uint8
		switch s {
		case 16:
			if i == 0 {
				return errInflateTrees // nothing to repeat
			}
			rep, xb, l = 3, 2, lens[i-1]
		case 17:
			rep, xb = 3, 3
		default:
			rep, xb = 11, 7
		}
		if xb > z.bn {
			return errInflateTruncated
		}
		rep += uint(z.bb) & (1<<xb - 1)
		z.bb, z.bn = z.bb>>xb, z.bn-xb
		if i+int(rep) > len(lens) {
			return errInflateTrees
		}
		for ; rep > 0; rep-- {
			lens[i] = l
			i++
		}
	}
	if lens[256] == 0 { // a block cannot end without its end-of-block code
		return errInflateTrees
	}
	if !buildTable(z.lit[:], litBits, lens[:nlit], litProto[:]) || !buildTable(z.dist[:], distBits, lens[nlit:], distProto[:]) {
		return errInflateTrees
	}
	return nil
}

// The symbol loop runs unguarded while a whole step of it — two refills
// on the source side; three literals, then a match of 258 bytes copied
// eight at a time, on the other — cannot leave src or dst.
const (
	srcMargin = 16
	dstMargin = 3 + 258 + 8
)

// spread is, for a distance under eight, its multiple that is eight or more.
var spread = [8]uint8{8, 8, 8, 9, 8, 10, 12, 14}

// huffman decodes the symbols of one block up to its end-of-block code.
func (z *inflater) huffman(lit *[litTabSize]uint32, dist *[distTabSize]uint32) error {
	src, dst := z.src, z.dst
	bb, bn, pos, out := z.bb, z.bn, z.pos, z.out
	for pos+srcMargin <= len(src) && out+dstMargin <= len(dst) {
		bb |= binary.LittleEndian.Uint64(src[pos:]) << (bn & 63)
		pos += int(63-bn) >> 3
		bn |= 56
		// 56 bits: three literals of the primary table, then anything —
		// a code of 15 bits and 5 extra — and a second refill before the
		// distance's 15 and 13.
		e := lit[bb&(1<<litBits-1)]
		for n := 0; e&entLit != 0 && n < 3; n++ {
			bb, bn = bb>>(e&63), bn-uint(e&63)
			dst[out] = byte(e >> 16)
			out++
			e = lit[bb&(1<<litBits-1)]
		}
		if e&entSub != 0 {
			bb, bn = bb>>litBits, bn-litBits
			e = lit[e>>16+uint32(bb)&(1<<(e>>8&15)-1)]
		}
		saved := bb
		bb, bn = bb>>(e&63), bn-uint(e&63)
		if e&entLit != 0 {
			dst[out] = byte(e >> 16)
			out++
			continue
		}
		if e&entOdd != 0 {
			z.bb, z.bn, z.pos, z.out = bb, bn, pos, out
			if e&entEnd != 0 {
				return nil
			}
			return errInflateCode
		}
		length := int(e>>16) + int(saved&(1<<(e&63)-1)>>(e>>8&15))

		bb |= binary.LittleEndian.Uint64(src[pos:]) << (bn & 63)
		pos += int(63-bn) >> 3
		bn |= 56
		e = dist[bb&(1<<distBits-1)]
		if e&entSub != 0 {
			bb, bn = bb>>distBits, bn-distBits
			e = dist[e>>16+uint32(bb)&(1<<(e>>8&15)-1)]
		}
		if e&entOdd != 0 {
			return errInflateCode
		}
		saved = bb
		bb, bn = bb>>(e&63), bn-uint(e&63)
		d := int(e>>16) + int(saved&(1<<(e&63)-1)>>(e>>8&15))
		if d > out {
			return errInflateDistance
		}
		// The match, eight bytes at a time and up to seven past its end
		// (the margin's; the next symbols overwrite them). Under a
		// distance of eight the first eight are the pattern spread out in
		// a register, and the rest follows at the multiple of the
		// distance that is eight or more.
		from, end := out-d, out+length
		if d < 8 {
			v := binary.LittleEndian.Uint64(dst[from:]) & (1<<(8*uint(d)) - 1)
			v |= v << (8 * uint(d))
			v |= v << (16 * uint(d))
			v |= v << (32 * uint(d))
			binary.LittleEndian.PutUint64(dst[out:], v)
			out, from = out+8, out+8-int(spread[d&7])
		} else {
			binary.LittleEndian.PutUint64(dst[out:], binary.LittleEndian.Uint64(dst[from:]))
			out, from = out+8, from+8
		}
		for out < end {
			binary.LittleEndian.PutUint64(dst[out:], binary.LittleEndian.Uint64(dst[from:]))
			out, from = out+8, from+8
		}
		out = end
	}
	z.bb, z.bn, z.pos, z.out = bb, bn, pos, out

	// Near the end of either slice: one symbol at a time, every step
	// checked.
	for {
		e, length, err := z.symbol(lit[:], litBits)
		switch {
		case err != nil:
			return err
		case e&entEnd != 0:
			return nil
		case e&entLit != 0:
			if z.out == len(dst) {
				return errInflateLong
			}
			dst[z.out] = byte(e >> 16)
			z.out++
			continue
		}
		_, d, err := z.symbol(dist[:], distBits)
		switch {
		case err != nil:
			return err
		case d > z.out:
			return errInflateDistance
		case length > len(dst)-z.out:
			return errInflateLong
		}
		// The match follows its source: each copy doubles what is there.
		seg := dst[z.out-d : z.out+length]
		for n := d; n < len(seg); n *= 2 {
			copy(seg[n:], seg[:n])
		}
		z.out += length
	}
}

// symbol decodes the next symbol of tab with no assumption about how
// much of src is left: its entry, and for a length or a distance its
// value with the extra bits.
func (z *inflater) symbol(tab []uint32, primary uint) (e uint32, v int, err error) {
	z.fill()
	e = tab[z.bb&(1<<primary-1)]
	if e&entSub != 0 {
		if primary > z.bn {
			return 0, 0, errInflateTruncated
		}
		z.bb, z.bn = z.bb>>primary, z.bn-primary
		e = tab[e>>16+uint32(z.bb)&(1<<(e>>8&15)-1)]
	}
	n := uint(e & 63)
	if n > z.bn { // the bits the lookup saw past the stream's end were padding
		return 0, 0, errInflateTruncated
	}
	if e&(entOdd|entEnd) == entOdd {
		return 0, 0, errInflateCode
	}
	v = int(e>>16) + int(z.bb&(1<<n-1)>>(e>>8&15))
	z.bb, z.bn = z.bb>>n, z.bn-n
	return e, v, nil
}
