package particle

import "encoding/binary"

// Pooled per-call codec state. One codecState carries every piece of
// reusable codec machinery; CompressBlock/DecompressBlockInto check one
// out per call, so compressing N blocks on W workers allocates at most W
// states total, regardless of N.
//
// Size: the struct is 7.7 KiB, nearly all of it the inflater's Huffman
// tables (inflate.go); it points at the 64 KiB LZ table, at the shuffle
// and staging scratch of the largest block seen, and — once it has
// encoded a deflate field — at the deflater (deflate.go: 39 KiB and the
// matches of the largest plane seen), which a state that only decodes
// never builds. Nothing of it is cleared between calls: a deflate block
// rebuilds its decode tables by overwriting exactly the entries its two
// codes reach (every entry a lookup can land on; what a one-code or
// no-code tree leaves unassigned is written as such), the deflater's hash
// table is epoch-stamped, the scratch is overwritten before it is read,
// and only the LZ encoder clears its table.
//
// Ownership rule: a codecState is owned by exactly one (de)compression
// call from Get to Put; nothing inside it survives the call — payloads
// returned to callers are always appended onto caller-owned slices.
type codecState struct {
	def *deflater // built by the first deflate encode
	inf inflater  // Huffman tables of the deflate decoder (inflate.go)
	tab *lzTable  // LZ match-finder table, cleared per block
	out []byte    // compressed-bytes staging
	shf []byte    // shuffled byte planes
}

var codecStatePool = Pool[*codecState]{New: func() *codecState { return &codecState{tab: new(lzTable)} }}

// shuffled returns st's shuffle scratch resized to n bytes (contents
// unspecified; every byte is overwritten before use).
func (st *codecState) shuffled(n int) []byte {
	if cap(st.shf) < n {
		st.shf = make([]byte, n)
	}
	return st.shf[:n]
}

// The byte-plane shuffle, fused with the AoS gather/scatter. A field's
// column inside a record image is already strided; shuffling it into
// planes via an intermediate contiguous column costs two extra full
// passes. These kernels move bytes straight between the record image
// and the plane image, tiled over records so one tile of records stays
// cache-resident while all of its planes are visited.
//
// Plane layout: plane p of a field with c components of sz bytes holds
// byte p of every component value in record-major component order —
// shuf[p*nelem + (i*c + k)] == records[i*stride + off + k*sz + p].

// shuffleTile is the record-tile width of the generic (odd-width)
// kernels: 256 records of a 124-byte stride is ~31 KiB, comfortably
// L1/L2 resident across the sz plane passes.
const shuffleTile = 256

// Masks for the register-resident 8x8 byte-matrix transpose.
const (
	tm8  = 0x00FF00FF00FF00FF
	tm16 = 0x0000FFFF0000FFFF
	tm32 = 0x00000000FFFFFFFF
)

// transpose8x8 transposes an 8x8 byte matrix held row-major in eight
// words: output word p carries byte p of every input word, with input
// j landing at output byte j. Three rounds of masked merges (1-, 2-,
// then 4-byte lanes) — ~36 ALU ops for 64 bytes, no memory traffic.
// The transpose is its own inverse.
func transpose8x8(v0, v1, v2, v3, v4, v5, v6, v7 uint64) (uint64, uint64, uint64, uint64, uint64, uint64, uint64, uint64) {
	a0 := v0&tm8 | v1&tm8<<8
	a1 := v0>>8&tm8 | v1&^tm8
	a2 := v2&tm8 | v3&tm8<<8
	a3 := v2>>8&tm8 | v3&^tm8
	a4 := v4&tm8 | v5&tm8<<8
	a5 := v4>>8&tm8 | v5&^tm8
	a6 := v6&tm8 | v7&tm8<<8
	a7 := v6>>8&tm8 | v7&^tm8

	b0 := a0&tm16 | a2&tm16<<16
	b2 := a0>>16&tm16 | a2&^tm16
	b1 := a1&tm16 | a3&tm16<<16
	b3 := a1>>16&tm16 | a3&^tm16
	b4 := a4&tm16 | a6&tm16<<16
	b6 := a4>>16&tm16 | a6&^tm16
	b5 := a5&tm16 | a7&tm16<<16
	b7 := a5>>16&tm16 | a7&^tm16

	w0 := b0&tm32 | b4<<32
	w4 := b0>>32 | b4&^tm32
	w1 := b1&tm32 | b5<<32
	w5 := b1>>32 | b5&^tm32
	w2 := b2&tm32 | b6<<32
	w6 := b2>>32 | b6&^tm32
	w3 := b3&tm32 | b7<<32
	w7 := b3>>32 | b7&^tm32
	return w0, w1, w2, w3, w4, w5, w6, w7
}

// shuffleFromRecords fills shuf (count*c*sz bytes of byte planes) from
// the field at offset off of a record image.
//
// The 8- and 4-byte widths (every schema-expressible field) get
// word-at-a-time kernels: each component value is loaded once as a
// uint64/uint32 and its bytes scattered to the sz plane rows, so the
// record image is walked exactly once (one wide load per value instead
// of sz strided byte loads) and the sz write streams advance
// sequentially. That single pass is what the wire encode path spends
// most of its time in, so its shape matters.
func shuffleFromRecords(shuf, records []byte, stride, off, sz, c, count int) {
	nelem := count * c
	switch sz {
	case 8:
		p0, p1, p2, p3 := shuf[:nelem], shuf[nelem:2*nelem], shuf[2*nelem:3*nelem], shuf[3*nelem:4*nelem]
		p4, p5, p6, p7 := shuf[4*nelem:5*nelem], shuf[5*nelem:6*nelem], shuf[6*nelem:7*nelem], shuf[7*nelem:8*nelem]
		// Eight elements at a time: gather eight values, transpose the
		// 8x8 byte matrix in registers, store one word per plane.
		pos, k, e := off, 0, 0
		for ; e+8 <= nelem; e += 8 {
			var v [8]uint64
			for j := range v {
				v[j] = binary.LittleEndian.Uint64(records[pos:])
				pos += 8
				if k++; k == c {
					k = 0
					pos += stride - c*8
				}
			}
			w0, w1, w2, w3, w4, w5, w6, w7 := transpose8x8(v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7])
			binary.LittleEndian.PutUint64(p0[e:], w0)
			binary.LittleEndian.PutUint64(p1[e:], w1)
			binary.LittleEndian.PutUint64(p2[e:], w2)
			binary.LittleEndian.PutUint64(p3[e:], w3)
			binary.LittleEndian.PutUint64(p4[e:], w4)
			binary.LittleEndian.PutUint64(p5[e:], w5)
			binary.LittleEndian.PutUint64(p6[e:], w6)
			binary.LittleEndian.PutUint64(p7[e:], w7)
		}
		for ; e < nelem; e++ {
			v := binary.LittleEndian.Uint64(records[pos:])
			pos += 8
			if k++; k == c {
				k = 0
				pos += stride - c*8
			}
			p0[e] = byte(v)
			p1[e] = byte(v >> 8)
			p2[e] = byte(v >> 16)
			p3[e] = byte(v >> 24)
			p4[e] = byte(v >> 32)
			p5[e] = byte(v >> 40)
			p6[e] = byte(v >> 48)
			p7[e] = byte(v >> 56)
		}
	case 4:
		p0, p1, p2, p3 := shuf[:nelem], shuf[nelem:2*nelem], shuf[2*nelem:3*nelem], shuf[3*nelem:4*nelem]
		for i := 0; i < count; i++ {
			base := i*stride + off
			e := i * c
			for k := 0; k < c; k++ {
				v := binary.LittleEndian.Uint32(records[base+k*4:])
				p0[e+k] = byte(v)
				p1[e+k] = byte(v >> 8)
				p2[e+k] = byte(v >> 16)
				p3[e+k] = byte(v >> 24)
			}
		}
	default:
		for lo := 0; lo < count; lo += shuffleTile {
			hi := lo + shuffleTile
			if hi > count {
				hi = count
			}
			for p := 0; p < sz; p++ {
				row := shuf[p*nelem : (p+1)*nelem]
				for i := lo; i < hi; i++ {
					base := i*stride + off + p
					for k := 0; k < c; k++ {
						row[i*c+k] = records[base+k*sz]
					}
				}
			}
		}
	}
}

// unshuffleToRecords is the inverse: it gathers one byte from each
// plane row and stores the reassembled value with a single wide write.
func unshuffleToRecords(records, shuf []byte, stride, off, sz, c, count int) {
	nelem := count * c
	switch sz {
	case 8:
		p0, p1, p2, p3 := shuf[:nelem], shuf[nelem:2*nelem], shuf[2*nelem:3*nelem], shuf[3*nelem:4*nelem]
		p4, p5, p6, p7 := shuf[4*nelem:5*nelem], shuf[5*nelem:6*nelem], shuf[6*nelem:7*nelem], shuf[7*nelem:8*nelem]
		// The byte-matrix transpose is an involution: load one word per
		// plane, transpose, scatter eight reassembled values.
		pos, k, e := off, 0, 0
		for ; e+8 <= nelem; e += 8 {
			w0 := binary.LittleEndian.Uint64(p0[e:])
			w1 := binary.LittleEndian.Uint64(p1[e:])
			w2 := binary.LittleEndian.Uint64(p2[e:])
			w3 := binary.LittleEndian.Uint64(p3[e:])
			w4 := binary.LittleEndian.Uint64(p4[e:])
			w5 := binary.LittleEndian.Uint64(p5[e:])
			w6 := binary.LittleEndian.Uint64(p6[e:])
			w7 := binary.LittleEndian.Uint64(p7[e:])
			v0, v1, v2, v3, v4, v5, v6, v7 := transpose8x8(w0, w1, w2, w3, w4, w5, w6, w7)
			for _, v := range [8]uint64{v0, v1, v2, v3, v4, v5, v6, v7} {
				binary.LittleEndian.PutUint64(records[pos:], v)
				pos += 8
				if k++; k == c {
					k = 0
					pos += stride - c*8
				}
			}
		}
		for ; e < nelem; e++ {
			v := uint64(p0[e]) | uint64(p1[e])<<8 | uint64(p2[e])<<16 | uint64(p3[e])<<24 |
				uint64(p4[e])<<32 | uint64(p5[e])<<40 | uint64(p6[e])<<48 | uint64(p7[e])<<56
			binary.LittleEndian.PutUint64(records[pos:], v)
			pos += 8
			if k++; k == c {
				k = 0
				pos += stride - c*8
			}
		}
	case 4:
		p0, p1, p2, p3 := shuf[:nelem], shuf[nelem:2*nelem], shuf[2*nelem:3*nelem], shuf[3*nelem:4*nelem]
		for i := 0; i < count; i++ {
			base := i*stride + off
			e := i * c
			for k := 0; k < c; k++ {
				v := uint32(p0[e+k]) | uint32(p1[e+k])<<8 | uint32(p2[e+k])<<16 | uint32(p3[e+k])<<24
				binary.LittleEndian.PutUint32(records[base+k*4:], v)
			}
		}
	default:
		for lo := 0; lo < count; lo += shuffleTile {
			hi := lo + shuffleTile
			if hi > count {
				hi = count
			}
			for p := 0; p < sz; p++ {
				row := shuf[p*nelem : (p+1)*nelem]
				for i := lo; i < hi; i++ {
					base := i*stride + off + p
					for k := 0; k < c; k++ {
						records[base+k*sz] = row[i*c+k]
					}
				}
			}
		}
	}
}

// unshuffleRows is unshuffleToRecords for a selection: it reassembles the
// field's values of records lo+rows[j] alone, one byte from each plane
// per value, and leaves every other record of the image untouched. The
// cost follows the selection, not the block. sz is a Kind's size, 8 or 4.
func unshuffleRows(records, shuf []byte, stride, off, sz, c, count, lo int, rows []int32) {
	nelem := count * c
	switch sz {
	case 8:
		p0, p1, p2, p3 := shuf[:nelem], shuf[nelem:2*nelem], shuf[2*nelem:3*nelem], shuf[3*nelem:4*nelem]
		p4, p5, p6, p7 := shuf[4*nelem:5*nelem], shuf[5*nelem:6*nelem], shuf[6*nelem:7*nelem], shuf[7*nelem:8*nelem]
		for _, i := range rows {
			r := lo + int(i)
			pos := r*stride + off
			for e := r * c; e < (r+1)*c; e, pos = e+1, pos+8 {
				v := uint64(p0[e]) | uint64(p1[e])<<8 | uint64(p2[e])<<16 | uint64(p3[e])<<24 |
					uint64(p4[e])<<32 | uint64(p5[e])<<40 | uint64(p6[e])<<48 | uint64(p7[e])<<56
				binary.LittleEndian.PutUint64(records[pos:], v)
			}
		}
	case 4:
		p0, p1, p2, p3 := shuf[:nelem], shuf[nelem:2*nelem], shuf[2*nelem:3*nelem], shuf[3*nelem:4*nelem]
		for _, i := range rows {
			r := lo + int(i)
			pos := r*stride + off
			for e := r * c; e < (r+1)*c; e, pos = e+1, pos+4 {
				v := uint32(p0[e]) | uint32(p1[e])<<8 | uint32(p2[e])<<16 | uint32(p3[e])<<24
				binary.LittleEndian.PutUint32(records[pos:], v)
			}
		}
	}
}
