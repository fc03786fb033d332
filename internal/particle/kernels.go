package particle

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file holds the hot-path encode/decode kernels. The wire format is
// the AoS record encoding (schema fields in order, components
// little-endian); the buffer is SoA. The naive transposition walks the
// schema once per particle — a switch and a bounds-checked append per
// field per record. The kernels below hoist the schema walk out of the
// per-particle loop: one tight per-field/per-component inner loop over a
// pre-sized destination, no append, no per-record dispatch. Encode and
// decode stay exact mirrors of each other (the wiresym invariant), they
// just iterate field-major instead of record-major — the bytes produced
// and consumed are identical.

// SetLen resizes the buffer to exactly n particles. Growing extends every
// column with zero values; shrinking truncates. It is the pre-sizing
// primitive of a read whose size is known up front: size the columns
// once, then DecodeRecordsAt fills them in place.
func (b *Buffer) SetLen(n int) {
	if n < 0 {
		panic(fmt.Sprintf("particle: SetLen(%d)", n))
	}
	for fi := 0; fi < b.schema.NumFields(); fi++ {
		f := b.schema.Field(fi)
		want := n * f.Components
		switch f.Kind {
		case Float64:
			s := b.f64[b.fieldSlot[fi]]
			if want <= len(s) {
				s = s[:want]
			} else if want <= cap(s) {
				tail := s[len(s):want]
				for i := range tail {
					tail[i] = 0
				}
				s = s[:want]
			} else {
				ns := make([]float64, want)
				copy(ns, s)
				s = ns
			}
			b.f64[b.fieldSlot[fi]] = s
		case Float32:
			s := b.f32[b.fieldSlot[fi]]
			if want <= len(s) {
				s = s[:want]
			} else if want <= cap(s) {
				tail := s[len(s):want]
				for i := range tail {
					tail[i] = 0
				}
				s = s[:want]
			} else {
				ns := make([]float32, want)
				copy(ns, s)
				s = ns
			}
			b.f32[b.fieldSlot[fi]] = s
		}
	}
	b.n = n
}

// Permute reorders the buffer in place so that the particle that was at
// perm[i] ends up at position i. perm must be a permutation of
// [0, Len()).
//
// The reorder is a column-by-column gather, not a per-element Swap walk:
// Swap touches every field of both particles per exchange, which for a
// wide schema means a strided cache miss per field per swap. The gather
// streams one column at a time into a scratch column and then swaps the
// scratch in as the new column, so each field costs one pass and no
// copy-back; the displaced column becomes the scratch for the next field
// of the same kind.
func (b *Buffer) Permute(perm []int) {
	if len(perm) != b.n {
		panic(fmt.Sprintf("particle: permutation length %d != buffer length %d", len(perm), b.n))
	}
	var sp64 []float64
	var sp32 []float32
	for fi := 0; fi < b.schema.NumFields(); fi++ {
		f := b.schema.Field(fi)
		c := f.Components
		switch f.Kind {
		case Float64:
			col := b.f64[b.fieldSlot[fi]]
			if cap(sp64) < len(col) {
				sp64 = make([]float64, len(col))
			}
			tmp := sp64[:len(col)]
			gather64(tmp, col, perm, c)
			b.f64[b.fieldSlot[fi]] = tmp
			sp64 = col
		case Float32:
			col := b.f32[b.fieldSlot[fi]]
			if cap(sp32) < len(col) {
				sp32 = make([]float32, len(col))
			}
			tmp := sp32[:len(col)]
			gather32(tmp, col, perm, c)
			b.f32[b.fieldSlot[fi]] = tmp
			sp32 = col
		}
	}
}

// gather64 writes src's records at the given indices into dst in order:
// dst particle i gets src particle idx[i]. The 1- and 3-component cases
// are unrolled — a copy call per 8- or 24-byte record costs more than the
// moves themselves.
func gather64(dst, src []float64, idx []int, c int) {
	switch c {
	case 1:
		for i, p := range idx {
			dst[i] = src[p]
		}
	case 3:
		for i, p := range idx {
			j := p * 3
			dst[i*3] = src[j]
			dst[i*3+1] = src[j+1]
			dst[i*3+2] = src[j+2]
		}
	case 9:
		for i, p := range idx {
			d := dst[i*9 : i*9+9]
			j := p * 9
			d[0] = src[j]
			d[1] = src[j+1]
			d[2] = src[j+2]
			d[3] = src[j+3]
			d[4] = src[j+4]
			d[5] = src[j+5]
			d[6] = src[j+6]
			d[7] = src[j+7]
			d[8] = src[j+8]
		}
	default:
		// An element loop, not copy: at a handful of components per
		// record, the memmove call costs more than the moves.
		for i, p := range idx {
			d := dst[i*c : i*c+c]
			s := src[p*c : p*c+c]
			for k := range d {
				d[k] = s[k]
			}
		}
	}
}

// gather32 is gather64 for float32 columns.
func gather32(dst, src []float32, idx []int, c int) {
	switch c {
	case 1:
		for i, p := range idx {
			dst[i] = src[p]
		}
	case 3:
		for i, p := range idx {
			j := p * 3
			dst[i*3] = src[j]
			dst[i*3+1] = src[j+1]
			dst[i*3+2] = src[j+2]
		}
	default:
		for i, p := range idx {
			d := dst[i*c : i*c+c]
			s := src[p*c : p*c+c]
			for k := range d {
				d[k] = s[k]
			}
		}
	}
}

// transposeBlock is the particle count per cache block of the AoS<->SoA
// transposition kernels. The kernels iterate field-major (the schema walk
// hoisted out of the particle loop) but over blocks of this many records
// at a time, so each AoS row is touched while it is still cache-resident
// instead of once per field across a multi-megabyte payload — the
// field-major sweep over the full payload would otherwise read and write
// every row cache line NumFields times from memory.
const transposeBlock = 256

// EncodeRecordsInto writes the AoS record encoding of particles [lo, hi)
// into dst, which must be exactly (hi-lo)*Stride() bytes. Unlike
// EncodeRecords it never allocates: the caller owns the destination, so
// chunked writers can reuse one scratch buffer across the whole payload.
func (b *Buffer) EncodeRecordsInto(dst []byte, lo, hi int) {
	if lo < 0 || hi > b.n || lo > hi {
		panic(fmt.Sprintf("particle: EncodeRecordsInto[%d:%d] of %d", lo, hi, b.n))
	}
	stride := b.schema.Stride()
	if len(dst) != (hi-lo)*stride {
		panic(fmt.Sprintf("particle: EncodeRecordsInto dst has %d bytes, want %d", len(dst), (hi-lo)*stride))
	}
	for blo := lo; blo < hi; blo += transposeBlock {
		bhi := blo + transposeBlock
		if bhi > hi {
			bhi = hi
		}
		b.encodeBlock(dst[(blo-lo)*stride:(bhi-lo)*stride], blo, bhi)
	}
}

// encodeBlock transposes one block of records SoA -> AoS, field-major.
func (b *Buffer) encodeBlock(dst []byte, lo, hi int) {
	stride := b.schema.Stride()
	n := hi - lo
	for fi := 0; fi < b.schema.NumFields(); fi++ {
		f := b.schema.Field(fi)
		c := f.Components
		off := b.schema.Offset(fi)
		switch f.Kind {
		case Float64:
			s := b.f64[b.fieldSlot[fi]][lo*c : hi*c]
			switch c {
			case 1:
				for i := 0; i < n; i++ {
					binary.LittleEndian.PutUint64(dst[i*stride+off:], math.Float64bits(s[i]))
				}
			case 3:
				for i := 0; i < n; i++ {
					row := dst[i*stride+off : i*stride+off+24]
					binary.LittleEndian.PutUint64(row[0:], math.Float64bits(s[i*3]))
					binary.LittleEndian.PutUint64(row[8:], math.Float64bits(s[i*3+1]))
					binary.LittleEndian.PutUint64(row[16:], math.Float64bits(s[i*3+2]))
				}
			case 9:
				for i := 0; i < n; i++ {
					row := dst[i*stride+off : i*stride+off+72]
					j := i * 9
					binary.LittleEndian.PutUint64(row[0:], math.Float64bits(s[j]))
					binary.LittleEndian.PutUint64(row[8:], math.Float64bits(s[j+1]))
					binary.LittleEndian.PutUint64(row[16:], math.Float64bits(s[j+2]))
					binary.LittleEndian.PutUint64(row[24:], math.Float64bits(s[j+3]))
					binary.LittleEndian.PutUint64(row[32:], math.Float64bits(s[j+4]))
					binary.LittleEndian.PutUint64(row[40:], math.Float64bits(s[j+5]))
					binary.LittleEndian.PutUint64(row[48:], math.Float64bits(s[j+6]))
					binary.LittleEndian.PutUint64(row[56:], math.Float64bits(s[j+7]))
					binary.LittleEndian.PutUint64(row[64:], math.Float64bits(s[j+8]))
				}
			default:
				for i := 0; i < n; i++ {
					row := dst[i*stride+off : i*stride+off+c*8]
					for k := 0; k < c; k++ {
						binary.LittleEndian.PutUint64(row[k*8:], math.Float64bits(s[i*c+k]))
					}
				}
			}
		case Float32:
			s := b.f32[b.fieldSlot[fi]][lo*c : hi*c]
			for i := 0; i < n; i++ {
				row := dst[i*stride+off:]
				for k := 0; k < c; k++ {
					binary.LittleEndian.PutUint32(row[k*4:], math.Float32bits(s[i*c+k]))
				}
			}
		}
	}
}

// EncodeRecordsGather writes the AoS record encoding of the particles at
// the given indices, in order, into dst, which must be exactly
// len(idx)*Stride() bytes. It is EncodeRecordsInto composed with a
// gather: record i of dst is particle idx[i]. Streaming writers use it
// to emit a permuted payload without materializing the permuted buffer —
// the random-order column reads happen once, during the encode, instead
// of once in a Permute pass and again in a sequential encode.
func (b *Buffer) EncodeRecordsGather(dst []byte, idx []int) {
	stride := b.schema.Stride()
	if len(dst) != len(idx)*stride {
		panic(fmt.Sprintf("particle: EncodeRecordsGather dst has %d bytes, want %d", len(dst), len(idx)*stride))
	}
	for blo := 0; blo < len(idx); blo += transposeBlock {
		bhi := blo + transposeBlock
		if bhi > len(idx) {
			bhi = len(idx)
		}
		b.encodeGatherBlock(dst[blo*stride:bhi*stride], idx[blo:bhi])
	}
}

// encodeGatherBlock transposes one block of records SoA -> AoS through
// an index gather, field-major.
func (b *Buffer) encodeGatherBlock(dst []byte, idx []int) {
	stride := b.schema.Stride()
	for fi := 0; fi < b.schema.NumFields(); fi++ {
		f := b.schema.Field(fi)
		c := f.Components
		off := b.schema.Offset(fi)
		switch f.Kind {
		case Float64:
			s := b.f64[b.fieldSlot[fi]]
			switch c {
			case 1:
				for i, p := range idx {
					binary.LittleEndian.PutUint64(dst[i*stride+off:], math.Float64bits(s[p]))
				}
			case 3:
				for i, p := range idx {
					row := dst[i*stride+off : i*stride+off+24]
					j := p * 3
					binary.LittleEndian.PutUint64(row[0:], math.Float64bits(s[j]))
					binary.LittleEndian.PutUint64(row[8:], math.Float64bits(s[j+1]))
					binary.LittleEndian.PutUint64(row[16:], math.Float64bits(s[j+2]))
				}
			case 9:
				// Unrolled so the nine loads of one gathered record issue
				// in parallel: the gather is latency-bound on random reads,
				// and a record's nine components span at most two cache
				// lines.
				for i, p := range idx {
					row := dst[i*stride+off : i*stride+off+72]
					j := p * 9
					binary.LittleEndian.PutUint64(row[0:], math.Float64bits(s[j]))
					binary.LittleEndian.PutUint64(row[8:], math.Float64bits(s[j+1]))
					binary.LittleEndian.PutUint64(row[16:], math.Float64bits(s[j+2]))
					binary.LittleEndian.PutUint64(row[24:], math.Float64bits(s[j+3]))
					binary.LittleEndian.PutUint64(row[32:], math.Float64bits(s[j+4]))
					binary.LittleEndian.PutUint64(row[40:], math.Float64bits(s[j+5]))
					binary.LittleEndian.PutUint64(row[48:], math.Float64bits(s[j+6]))
					binary.LittleEndian.PutUint64(row[56:], math.Float64bits(s[j+7]))
					binary.LittleEndian.PutUint64(row[64:], math.Float64bits(s[j+8]))
				}
			default:
				for i, p := range idx {
					row := dst[i*stride+off : i*stride+off+c*8]
					j := p * c
					for k := 0; k < c; k++ {
						binary.LittleEndian.PutUint64(row[k*8:], math.Float64bits(s[j+k]))
					}
				}
			}
		case Float32:
			s := b.f32[b.fieldSlot[fi]]
			for i, p := range idx {
				row := dst[i*stride+off:]
				j := p * c
				for k := 0; k < c; k++ {
					binary.LittleEndian.PutUint32(row[k*4:], math.Float32bits(s[j+k]))
				}
			}
		}
	}
}

// DecodeRecordsAt decodes the records in data (a whole number of
// records) into particles [at, at+count) of the buffer, which must
// already be sized (SetLen) to cover the region. It does not change the
// buffer's length, so concurrent calls decoding into disjoint regions
// are safe.
func (b *Buffer) DecodeRecordsAt(data []byte, at int) error {
	return b.decodeRowsAt(data, b.schema.stride, b.schema.offsets, at)
}

// decodeRowsAt is DecodeRecordsAt over rows of any layout that carries
// the buffer's fields: rows are stride bytes apart and field k of the
// buffer sits at byte offs[k] of each row. The buffer's own schema gives
// the plain record decode; a projection's source layout gives the
// columnar projected decode (project.go).
func (b *Buffer) decodeRowsAt(data []byte, stride int, offs []int, at int) error {
	if len(data)%stride != 0 {
		return fmt.Errorf("particle: %d bytes is not a multiple of record size %d", len(data), stride)
	}
	count := len(data) / stride
	if at < 0 || at+count > b.n {
		return fmt.Errorf("particle: DecodeRecordsAt[%d:%d] of %d", at, at+count, b.n)
	}
	for blo := 0; blo < count; blo += transposeBlock {
		bhi := blo + transposeBlock
		if bhi > count {
			bhi = count
		}
		b.decodeBlock(data[blo*stride:bhi*stride], stride, offs, at+blo, bhi-blo)
	}
	return nil
}

// decodeBlock transposes one block of rows AoS -> SoA, field-major.
func (b *Buffer) decodeBlock(data []byte, stride int, offs []int, at, count int) {
	for fi := 0; fi < b.schema.NumFields(); fi++ {
		f := b.schema.Field(fi)
		c := f.Components
		off := offs[fi]
		switch f.Kind {
		case Float64:
			s := b.f64[b.fieldSlot[fi]][at*c : (at+count)*c]
			switch c {
			case 1:
				for i := 0; i < count; i++ {
					s[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*stride+off:]))
				}
			case 3:
				for i := 0; i < count; i++ {
					row := data[i*stride+off : i*stride+off+24]
					s[i*3] = math.Float64frombits(binary.LittleEndian.Uint64(row[0:]))
					s[i*3+1] = math.Float64frombits(binary.LittleEndian.Uint64(row[8:]))
					s[i*3+2] = math.Float64frombits(binary.LittleEndian.Uint64(row[16:]))
				}
			case 9:
				for i := 0; i < count; i++ {
					row := data[i*stride+off : i*stride+off+72]
					j := i * 9
					s[j] = math.Float64frombits(binary.LittleEndian.Uint64(row[0:]))
					s[j+1] = math.Float64frombits(binary.LittleEndian.Uint64(row[8:]))
					s[j+2] = math.Float64frombits(binary.LittleEndian.Uint64(row[16:]))
					s[j+3] = math.Float64frombits(binary.LittleEndian.Uint64(row[24:]))
					s[j+4] = math.Float64frombits(binary.LittleEndian.Uint64(row[32:]))
					s[j+5] = math.Float64frombits(binary.LittleEndian.Uint64(row[40:]))
					s[j+6] = math.Float64frombits(binary.LittleEndian.Uint64(row[48:]))
					s[j+7] = math.Float64frombits(binary.LittleEndian.Uint64(row[56:]))
					s[j+8] = math.Float64frombits(binary.LittleEndian.Uint64(row[64:]))
				}
			default:
				for i := 0; i < count; i++ {
					row := data[i*stride+off : i*stride+off+c*8]
					for k := 0; k < c; k++ {
						s[i*c+k] = math.Float64frombits(binary.LittleEndian.Uint64(row[k*8:]))
					}
				}
			}
		case Float32:
			s := b.f32[b.fieldSlot[fi]][at*c : (at+count)*c]
			for i := 0; i < count; i++ {
				row := data[i*stride+off:]
				for k := 0; k < c; k++ {
					s[i*c+k] = math.Float32frombits(binary.LittleEndian.Uint32(row[k*4:]))
				}
			}
		}
	}
}

// FieldRanges returns the per-component minima and maxima of every field,
// flattened in schema order — the scan behind the metadata's range-query
// rows. A NaN component value propagates to that component's min and max
// (matching math.Min/math.Max), and -0 orders below +0, but the scan uses
// plain comparisons in the common path instead of a math.Min/math.Max
// call per element. An empty buffer yields nil: min/max of nothing is
// undefined, not ±Inf.
func (b *Buffer) FieldRanges() (mins, maxs []float64) {
	if b.n == 0 {
		return nil, nil
	}
	base := 0
	for fi := 0; fi < b.schema.NumFields(); fi++ {
		f := b.schema.Field(fi)
		c := f.Components
		for k := 0; k < c; k++ {
			mins = append(mins, math.Inf(1))
			maxs = append(maxs, math.Inf(-1))
		}
		switch f.Kind {
		case Float64:
			s := b.f64[b.fieldSlot[fi]]
			for i := 0; i < b.n; i++ {
				for k := 0; k < c; k++ {
					rangeScan(s[i*c+k], &mins[base+k], &maxs[base+k])
				}
			}
		case Float32:
			s := b.f32[b.fieldSlot[fi]]
			for i := 0; i < b.n; i++ {
				for k := 0; k < c; k++ {
					rangeScan(float64(s[i*c+k]), &mins[base+k], &maxs[base+k])
				}
			}
		}
		base += c
	}
	return mins, maxs
}

// rangeScan folds one value into a running (min, max) pair with plain
// comparisons, preserving the semantics of math.Min/math.Max: a NaN
// poisons both (v < NaN and v > NaN are always false, so the pair stays
// NaN for the rest of the column), and -0 orders below +0.
func rangeScan(v float64, mn, mx *float64) {
	neg := math.Signbit(v)
	if v != v {
		*mn = v
		*mx = v
	} else if v < *mn || (v == *mn && neg) {
		*mn = v
		if v > *mx {
			*mx = v
		}
	} else if v > *mx || (v == *mx && !neg) {
		*mx = v
	}
}
