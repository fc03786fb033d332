package particle

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Batch codec entry points: a run of codec blocks is worked off by at
// most a worker count of goroutines, the caller's among them, each taking
// the next block index from one counter, and the first error is kept
// under one mutex. Workers write only to disjoint outputs (their own
// frame slot, their own record region), so the only shared mutable state
// is the counter and the error slot.

// batchWorkers normalizes a worker-count knob: <= 0 means GOMAXPROCS,
// and a batch never needs more workers than items.
func batchWorkers(workers, items int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > items {
		workers = items
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// batchErr collects the first error from a batch under one mutex.
type batchErr struct {
	mu  sync.Mutex
	err error
}

func (b *batchErr) set(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
}

// eachBlock runs fn for every block index in [0, n) on min(workers, n)
// goroutines, the caller's among them, and returns the first error; the
// blocks not yet taken when one fails are skipped. Each fn holds a slot
// of slots while it runs (nil slots: none), the one bound shared by every
// call that passes them. fn must write only to outputs that are its
// block's own.
func eachBlock(n, workers int, slots chan struct{}, fn func(i int) error) error {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		errs batchErr
	)
	work := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			if err := holding(slots, fn, i); err != nil {
				errs.set(err)
				next.Store(int64(n))
			}
		}
	}
	workers = batchWorkers(workers, n)
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return errs.err
}

// holding runs fn(i) while it holds a slot of slots; nil slots holds none.
func holding(slots chan struct{}, fn func(i int) error, i int) error {
	if slots != nil {
		slots <- struct{}{}
		defer func() { <-slots }()
	}
	return fn(i)
}

// CompressBlocks compresses each block of AoS records under the spec
// concurrently on at most workers goroutines and returns the per-block
// frames in block order. workers <= 0 means the process's bound: no more
// blocks are compressed at once, over every call, than the machine has
// CPUs (compressing). The result is byte-identical to calling
// CompressBlock per block: each worker checks its own codec state out of
// the pool, so blocks never share mutable state and the frame bytes do
// not depend on scheduling.
func CompressBlocks(schema *Schema, spec Spec, blocks [][]byte, workers int) ([][]byte, error) {
	if err := spec.Validate(schema); err != nil {
		return nil, err
	}
	var slots chan struct{}
	if workers <= 0 {
		slots = compressing
	}
	out := make([][]byte, len(blocks))
	err := eachBlock(len(blocks), workers, slots, func(bi int) error {
		return compressInto(out, bi, schema, spec, blocks[bi])
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// compressInto appends block bi's frame of records to out[bi], the slot
// it was handed, and stores it there; a nil slot gets memory of its own.
func compressInto(out [][]byte, bi int, schema *Schema, spec Spec, records []byte) error {
	dst := out[bi]
	if dst == nil {
		dst = make([]byte, 0, FrameBound(schema, len(records)))
	}
	frame, err := AppendCompressedBlock(dst, schema, spec, records)
	if err != nil {
		return fmt.Errorf("particle: batch compress block %d: %w", bi, err)
	}
	out[bi] = frame
	return nil
}

// FrameBound is the most bytes the frame of n record bytes takes under any
// spec: the records and, per field, a codec byte and a length.
func FrameBound(schema *Schema, n int) int { return n + 16*schema.NumFields() }

// compressing holds a slot for each block a call without a worker count
// of its own is compressing, so no more codec states and images are in
// use at once than the machine has CPUs. Concurrent writes each fan their
// blocks out, and a goroutine preempted mid-block keeps its state: bounded
// per call, a write on 8 Ps kept up to four times as many states as blocks
// it could run, and one first handed a large block many writes in grew
// its scratch then, megabytes at a time.
var compressing = make(chan struct{}, runtime.NumCPU())

// CompressRowsInto compresses the rows taken in the given order — record
// i is row order[i], or row i when order is nil (Rows.Gather) — cut into
// blocks of lens[b] records, under the spec, and returns the frames in
// block order. Frame b is written into arena at the sum of the
// FrameBounds of the blocks before it; a block whose bound the arena has
// no room for — every block, of a nil arena — gets a frame of its own,
// the bytes the same. Each block is one job on the compressing slots: it
// draws an image sized for the largest block (so every block draws one
// class), gathers its records into it, compresses them into its slot and
// puts the image back, so a file of any size holds at most one image a
// CPU. The frames are byte-identical to CompressBlock over each block
// of the payload taken in order.
func CompressRowsInto(arena []byte, spec Spec, rows *Rows, order []int, lens []int64) ([][]byte, error) {
	schema := rows.Schema()
	if err := spec.Validate(schema); err != nil {
		return nil, err
	}
	stride := schema.Stride()
	// The third index is what keeps a frame that outgrows its bound — none
	// does — out of its neighbour: append moves it to memory of its own.
	out := make([][]byte, len(lens))
	starts := make([]int, len(lens)+1) // starts[b]: block b's first record
	largest := 0
	for bi, off := 0, 0; bi < len(lens); bi++ {
		n := int(lens[bi]) * stride
		if end := off + FrameBound(schema, n); end <= len(arena) {
			out[bi] = arena[off:off:end]
			off = end
		}
		starts[bi+1] = starts[bi] + int(lens[bi])
		largest = max(largest, n)
	}
	if total := starts[len(lens)]; total != rows.Len() || (order != nil && len(order) != total) {
		return nil, fmt.Errorf("particle: blocks of %d records over %d rows in an order of %d", total, rows.Len(), len(order))
	}
	err := eachBlock(len(lens), 0, compressing, func(bi int) error {
		image := Bytes.Get(largest)
		defer Bytes.Put(image)
		records := image[:(starts[bi+1]-starts[bi])*stride]
		rows.Gather(records, order, starts[bi], starts[bi+1])
		return compressInto(out, bi, schema, spec, records)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CompressedBlock is one input to DecompressBlocks: a self-describing
// block frame, the record count it holds, and the offset (in records)
// of its region in the destination.
type CompressedBlock struct {
	Frame []byte
	Count int
	At    int
}

// DecompressBlocks decodes a set of block frames into disjoint regions
// of one destination record image, fanning the per-block decodes over
// at most workers goroutines (workers <= 0 means GOMAXPROCS). dst must
// hold every region: each block writes records [At, At+Count). Regions
// must not overlap — the pool checks only that they stay inside dst.
// Output is byte-identical to a serial DecompressBlockInto loop.
func DecompressBlocks(schema *Schema, blocks []CompressedBlock, dst []byte, workers int) error {
	stride := schema.Stride()
	for bi, blk := range blocks {
		if blk.Count < 0 || blk.At < 0 || (blk.At+blk.Count)*stride > len(dst) {
			return fmt.Errorf("particle: batch decode block %d: region [%d, %d) outside destination of %d records",
				bi, blk.At, blk.At+blk.Count, len(dst)/stride)
		}
	}
	return eachBlock(len(blocks), workers, nil, func(bi int) error {
		blk := blocks[bi]
		region := dst[blk.At*stride : (blk.At+blk.Count)*stride]
		if err := DecompressBlockInto(schema, blk.Frame, blk.Count, region); err != nil {
			return fmt.Errorf("particle: batch decode block %d: %w", bi, err)
		}
		return nil
	})
}
