package particle

import (
	"fmt"
	"runtime"
	"sync"
)

// Batch codec entry points: fan a run of codec blocks over a bounded
// worker pool — semaphore-bounded goroutines, a WaitGroup joining them,
// and the first error collected under one mutex — degrading to a
// synchronous loop when a single worker could not overlap anything
// anyway. Workers write only to disjoint outputs (their own frame slot,
// their own record region), so the only shared mutable state is the
// error slot.

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
	if err == nil {
		return
	}
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.mu.Unlock()
}

// eachBlock runs fn for every block index in [0, n) and returns the first
// error. Each call holds a slot of slots while it runs; nil slots means
// at most workers of the batch's own. fn must write only to outputs that
// are its block's own.
func eachBlock(n, workers int, slots chan struct{}, fn func(i int) error) error {
	workers = batchWorkers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := holding(slots, fn, i); err != nil {
				return err
			}
		}
		return nil
	}
	if slots == nil {
		slots = make(chan struct{}, workers)
	}
	var (
		wg   sync.WaitGroup
		errs batchErr
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs.set(holding(slots, fn, i))
		}(i)
	}
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
// CPUs (compressing). The
// result is byte-identical to calling CompressBlock per block: each
// worker checks its own codec state out of the pool, so blocks never
// share mutable state and the frame bytes do not depend on scheduling.
func CompressBlocks(schema *Schema, spec Spec, blocks [][]byte, workers int) ([][]byte, error) {
	return CompressBlocksInto(nil, schema, spec, blocks, workers)
}

// FrameBound is the most bytes the frame of n record bytes takes under any
// spec: the records and, per field, a codec byte and a length.
func FrameBound(schema *Schema, n int) int { return n + 16*schema.NumFields() }

// compressing holds a slot for each block a call without a worker count
// of its own is compressing, so no more codec states are in use at once
// than the machine has CPUs. Concurrent writes each fan their blocks out,
// and a goroutine preempted mid-block keeps its state: bounded per call,
// a write on 8 Ps kept up to four times as many states as blocks it could
// run, and one first handed a large block many writes in grew its scratch
// then, megabytes at a time.
var compressing = make(chan struct{}, runtime.NumCPU())

// CompressBlocksInto is CompressBlocks with the frames' memory supplied:
// frame i is written into arena at the sum of the FrameBounds of the
// blocks before it. A block whose bound the arena has no room for — every
// block, of a nil arena — gets a frame of its own; the bytes are the same.
func CompressBlocksInto(arena []byte, schema *Schema, spec Spec, blocks [][]byte, workers int) ([][]byte, error) {
	if err := spec.Validate(schema); err != nil {
		return nil, err
	}
	// The third index is what keeps a frame that outgrows its bound — none
	// does — out of its neighbour: append moves it to memory of its own.
	out := make([][]byte, len(blocks))
	for bi, off := 0, 0; bi < len(blocks); bi++ {
		if end := off + FrameBound(schema, len(blocks[bi])); end <= len(arena) {
			out[bi] = arena[off:off:end]
			off = end
		}
	}
	var slots chan struct{}
	if workers <= 0 {
		slots = compressing
	}
	err := eachBlock(len(blocks), workers, slots, func(bi int) error {
		dst := out[bi]
		if dst == nil {
			dst = make([]byte, 0, FrameBound(schema, len(blocks[bi])))
		}
		comp, err := AppendCompressedBlock(dst, schema, spec, blocks[bi])
		if err != nil {
			return fmt.Errorf("particle: batch compress block %d: %w", bi, err)
		}
		out[bi] = comp
		return nil
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
