package format

import (
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spio/internal/particle"
)

// TestConcurrentPayloadRangeSharedFile is the -race stress of the
// compressed read path: many goroutines drive random overlapping ranges
// through ONE DataFile — shared handle, shared pools — and every result
// must match the raw ground truth. GOMAXPROCS is raised so the scans
// genuinely interleave on the single-CPU CI machine.
func TestConcurrentPayloadRangeSharedFile(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	raw, comp, _ := writeCodecPair(t, 5000, particle.LosslessSpec(particle.Uintah()), false)
	rf, err := OpenDataFile(raw)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	want, err := rf.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	truth := want.Encode()
	stride := int64(want.Schema().Stride())

	cf, err := OpenDataFile(comp)
	if err != nil {
		t.Fatal(err)
	}
	count := cf.Header.Count
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				var lo, hi int64
				if r.Intn(3) == 0 {
					hi = 1 + r.Int63n(count) // prefix: the LOD read's shape
				} else {
					lo = r.Int63n(count)
					hi = lo + 1 + r.Int63n(count-lo)
				}
				got, err := cf.ReadRange(lo, hi)
				if err != nil {
					t.Errorf("range [%d,%d): %v", lo, hi, err)
					return
				}
				ref, err := particle.Decode(want.Schema(), truth[lo*stride:hi*stride])
				if err != nil {
					t.Error(err)
					return
				}
				if !got.Equal(ref) {
					t.Errorf("range [%d,%d): concurrent read diverged", lo, hi)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if err := cf.Close(); err != nil {
		t.Fatal(err)
	}
}

// countingReaderAt counts the reads that reach it.
type countingReaderAt struct {
	io.ReaderAt
	reads atomic.Int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.reads.Add(1)
	return c.ReaderAt.ReadAt(p, off)
}

// over is the OpenOptions.Seam that puts c in front of the one file a
// test opens.
func (c *countingReaderAt) over(_ string, file io.ReaderAt) io.ReaderAt {
	c.ReaderAt = file
	return c
}

// TestScanLeavesNoGoroutineBehind: every goroutine a scan starts is joined
// before the scan returns, so once the last of a file's scans is back
// nothing reads through its seam any more and Close has nobody to wait
// for — behind a seam, under the prefix reads of a progressive stream.
func TestScanLeavesNoGoroutineBehind(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	_, comp, _ := writeCodecPair(t, 6000, particle.LosslessSpec(particle.Uintah()), false)
	baseline := runtime.NumGoroutine()
	seam := &countingReaderAt{}
	cf, err := OpenDataFileWith(comp, OpenOptions{Seam: seam.over})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 8; i++ {
				if _, err := cf.ReadPrefix(1 + r.Int63n(cf.Header.Count)); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	reads := seam.reads.Load()
	if err := cf.Close(); err != nil {
		t.Fatal(err)
	}
	// A goroutine that has signalled its WaitGroup may be a moment from
	// gone; one with work left is not.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the scans, %d after Close", baseline, runtime.NumGoroutine())
		}
	}
	if late := seam.reads.Load() - reads; late != 0 {
		t.Errorf("%d reads reached the seam after the last scan had returned", late)
	}
}
