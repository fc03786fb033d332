package particle

import "sync"

// Column recycling for the aggregation hot path. The arrival-order
// exchange materializes one multi-megabyte buffer per aggregator per
// write, fills every particle of it (self copy + one decode region per
// sender), and drops it as soon as the data file lands. Allocating those
// columns fresh each time makes the runtime zero memory that is about to
// be overwritten wholesale; recycling them through a pool skips both the
// allocation and the zeroing.
//
// The pools hold columns of mixed lengths (one per field kind, not per
// field shape): Get returns a recycled column only when its capacity
// already covers the request and lets the garbage collector reclaim the
// rest. sync.Pool gives the required happens-before edge between Put and
// a later Get, so recycled columns are race-clean even when the previous
// owner filled them from decode workers.

var (
	colPool64 sync.Pool // *[]float64
	colPool32 sync.Pool // *[]float32
)

func getCol64(want int) []float64 {
	if v, _ := colPool64.Get().(*[]float64); v != nil && cap(*v) >= want {
		return (*v)[:want]
	}
	return make([]float64, want)
}

func getCol32(want int) []float32 {
	if v, _ := colPool32.Get().(*[]float32); v != nil && cap(*v) >= want {
		return (*v)[:want]
	}
	return make([]float32, want)
}

// NewBufferOverwrite returns a buffer of length n whose particle values
// are unspecified — possibly stale values from a recycled buffer, never
// guaranteed zeros. It is the allocation primitive for code that
// overwrites every particle before anyone reads one (the arrival-order
// aggregation buffer, columnar gathers): such callers pay for zeroing
// twice with NewBuffer+SetLen and not at all here. Any particle the
// caller fails to overwrite holds garbage, so this is only for
// full-coverage fills; use NewBuffer+SetLen when zero-extension
// semantics matter.
func NewBufferOverwrite(schema *Schema, n int) *Buffer {
	if schema == nil {
		panic("particle: nil schema")
	}
	b := &Buffer{schema: schema, n: n, fieldSlot: make([]int, schema.NumFields())}
	for i := 0; i < schema.NumFields(); i++ {
		f := schema.Field(i)
		switch f.Kind {
		case Float64:
			b.fieldSlot[i] = len(b.f64)
			b.f64 = append(b.f64, getCol64(n*f.Components))
		case Float32:
			b.fieldSlot[i] = len(b.f32)
			b.f32 = append(b.f32, getCol32(n*f.Components))
		}
	}
	return b
}

// Recycle returns b's columns to the recycle pools for a later
// NewBufferOverwrite. The caller must be the buffer's sole owner and
// must not touch b (or any slice previously obtained from its field
// accessors) afterwards.
func Recycle(b *Buffer) {
	if b == nil {
		return
	}
	for i := range b.f64 {
		col := b.f64[i]
		colPool64.Put(&col)
		b.f64[i] = nil
	}
	for i := range b.f32 {
		col := b.f32[i]
		colPool32.Put(&col)
		b.f32[i] = nil
	}
	b.n = 0
}
