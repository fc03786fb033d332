// Fixture for the wiretaint analyzer: every integer the frame decoder
// hands out is attacker-controlled until a bound check proves
// otherwise, and letting one reach a make() size or a loop bound turns
// a hostile length into a huge allocation or a spin before a single
// payload byte has arrived. The marker below is what makes this package
// one that decodes outside input: its reader's methods are the roots.
//
//spio:untrusted-input
package wiretaint

import "encoding/binary"

// maxBlob is the sanctioned per-value ceiling the bounded shapes
// compare against.
const maxBlob = 1 << 20

// reader mimics internal/binio's Reader over a client-supplied frame: it
// parses integers out of bytes a peer chose.
type reader struct {
	buf []byte
	off int
}

func (d *reader) u32() uint32 {
	if d.off+4 > len(d.buf) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

// decodeBlob allocates straight off the wire: the hostile length is
// the allocation size.
func decodeBlob(d *reader) []byte {
	n := d.u32()
	return make([]byte, n) // want "reaches a make"
}

// decodeRows spins off the wire: the loop bound is the sink.
func decodeRows(d *reader) int {
	rows := int(d.u32())
	total := 0
	for i := 0; i < rows; i++ { // want "reaches a loop bound"
		total += int(d.u32())
	}
	return total
}

// alloc hides the sink behind a helper: its summary records that
// parameter 0 flows into a make() size.
func alloc(n int) []float64 {
	return make([]float64, n)
}

// decodeSeries surfaces alloc's summarized sink at the call site that
// passes wire data in.
func decodeSeries(d *reader) []float64 {
	return alloc(int(d.u32())) // want "size in wiretaint.alloc"
}

// readCount launders the source through a helper return: the summary
// carries the source taint back to the caller.
func readCount(d *reader) int {
	return int(d.u32())
}

func decodeTable(d *reader) []int64 {
	rows := readCount(d)
	return make([]int64, rows) // want "reaches a make"
}

// header carries a decoded count through a struct field: the store in
// parse taints every later read of .count, wherever it happens.
type header struct {
	version int
	count   int
}

func parse(d *reader) header {
	var h header
	h.version = int(d.u32())
	h.count = int(d.u32())
	return h
}

// allocRows reads the tainted field far from the decode site.
func allocRows(h header) [][]float32 {
	return make([][]float32, h.count) // want "reaches a make"
}

// decodeBounded is the sanctioned shape: the early return dominates the
// allocation, so n is clean at the make. No finding.
func decodeBounded(d *reader) []byte {
	n := int(d.u32())
	if n < 0 || n > maxBlob {
		return nil
	}
	return make([]byte, n)
}

// decodeCapped trusts the caller's limit: parameters are caller-vouched
// bounds, so comparing against one clears the taint. No finding.
func decodeCapped(d *reader, limit int) []int32 {
	n := int(d.u32())
	if n > limit {
		n = limit
	}
	return make([]int32, n)
}

// decodeClamped clamps with the min builtin against a constant, which
// bounds the value as surely as a branch. No finding.
func decodeClamped(d *reader) []byte {
	return make([]byte, min(int(d.u32()), 4096))
}

// decodeScratch deliberately allocates off the wire: the transport
// already rejected frames over its cap, which this analyzer cannot see,
// and the directive records that argument.
func decodeScratch(d *reader) []byte {
	n := d.u32()
	//spio:allow wiretaint -- fixture: frame cap upstream already bounds n
	return make([]byte, n) // want "reaches a make"
}
