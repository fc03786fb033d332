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

// mapDecodedCache is a minimal DecodedBlockCache for seam tests: a map
// that never evicts, with lookup/hit/put counters, and a capacity that
// only decides which scans go around it (0: none do).
type mapDecodedCache struct {
	capacity int64

	mu     sync.Mutex
	blocks map[int][]byte
	gets   int
	hits   int
	puts   int
}

func newMapDecodedCache(capacity int64) *mapDecodedCache {
	return &mapDecodedCache{capacity: capacity, blocks: map[int][]byte{}}
}

func (c *mapDecodedCache) GetBlock(bi int) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gets++
	recs := c.blocks[bi]
	if recs != nil {
		c.hits++
	}
	return recs
}

func (c *mapDecodedCache) PutBlock(bi int, recs []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.blocks[bi]; !dup {
		c.blocks[bi] = recs
		c.puts++
	}
}

func (c *mapDecodedCache) Holds(n int64) bool { return c.capacity == 0 || n <= c.capacity }

// tierOf is the OpenOptions.Decoded of a test with one tier for its one
// file.
func tierOf(c DecodedBlockCache) func(string) DecodedBlockCache {
	return func(string) DecodedBlockCache { return c }
}

// TestDecodedTierServesRepeatReads pins the decoded-tier seam: repeat
// range reads must hit the tier instead of re-inflating, and every
// answer must stay byte-identical to the raw layout.
func TestDecodedTierServesRepeatReads(t *testing.T) {
	raw, comp, _ := writeCodecPair(t, 3000, particle.LosslessSpec(particle.Uintah()), false)
	rf, err := OpenDataFile(raw)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	tier := newMapDecodedCache(0)
	cf, err := OpenDataFileWith(comp, OpenOptions{Decoded: tierOf(tier)})
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()

	r := rand.New(rand.NewSource(31))
	count := cf.Header.Count
	for pass := 0; pass < 2; pass++ {
		r = rand.New(rand.NewSource(31)) // identical ranges both passes
		for i := 0; i < 25; i++ {
			lo := r.Int63n(count)
			hi := lo + 1 + r.Int63n(count-lo)
			want, err := rf.ReadRange(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cf.ReadRange(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("pass %d range [%d,%d): decoded-tier read diverges from raw", pass, lo, hi)
			}
		}
	}
	tier.mu.Lock()
	hits, puts := tier.hits, tier.puts
	tier.mu.Unlock()
	if puts == 0 || hits == 0 {
		t.Errorf("decoded tier unused: %d puts, %d hits", puts, hits)
	}
	if hits < puts {
		t.Errorf("second pass over identical ranges should hit more than it fills: %d hits < %d puts", hits, puts)
	}
}

// TestConcurrentPayloadRangeSharedFile is the -race stress of the
// read→decode pipeline: many goroutines drive random overlapping ranges
// through ONE DataFile — shared decode fan-out, shared decoded tier —
// and every result must match the raw ground truth. GOMAXPROCS is raised
// so the workers genuinely interleave on the single-CPU CI machine.
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

	for _, tier := range []bool{false, true} {
		var opts OpenOptions
		if tier {
			opts.Decoded = tierOf(newMapDecodedCache(0))
		}
		cf, err := OpenDataFileWith(comp, opts)
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
						t.Errorf("tier=%v range [%d,%d): concurrent read diverged", tier, lo, hi)
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

// TestScanGoesAroundTierItCannotFit pins the bypass rule: a scan whose
// blocks decode to more than the decoded tier holds neither asks it nor
// fills it — under LRU it would evict its own head before it could come
// back to it — and reads exactly its own blocks through the seam; a scan
// the tier can hold uses it exactly as before.
func TestScanGoesAroundTierItCannotFit(t *testing.T) {
	_, comp, _ := writeCodecPair(t, 6000, particle.LosslessSpec(particle.Uintah()), false)
	seam := &countingReaderAt{}
	tier := newMapDecodedCache(0)
	cf, err := OpenDataFileWith(comp, OpenOptions{Seam: seam.over, Decoded: tierOf(tier)})
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	blockRecs := cf.blockRecs
	if len(blockRecs) < 5 {
		t.Skipf("only %d blocks", len(blockRecs)-1)
	}
	// Room for blocks 0..2 together, not for 0..3.
	tier.capacity = blockRecs[3] * int64(cf.Header.Schema.Stride())

	// Too large: blocks 0..3 are read, and nothing else.
	if _, err := cf.ReadRange(0, blockRecs[3]+1); err != nil {
		t.Fatal(err)
	}
	if tier.gets != 0 || tier.puts != 0 {
		t.Errorf("a scan too large for the tier asked it %d times and offered it %d blocks", tier.gets, tier.puts)
	}
	if got := seam.reads.Load(); got != 4 {
		t.Errorf("%d reads through the seam, want the scan's 4 blocks", got)
	}

	// Small enough: the tier is filled.
	if _, err := cf.ReadRange(0, blockRecs[2]); err != nil {
		t.Fatal(err)
	}
	if tier.puts != 2 || tier.blocks[0] == nil || tier.blocks[1] == nil {
		t.Errorf("a scan the tier holds left %d blocks in it, want blocks 0 and 1", tier.puts)
	}
	if _, err := cf.ReadRange(0, blockRecs[2]); err != nil {
		t.Fatal(err)
	}
	if tier.hits != 2 {
		t.Errorf("the repeat of a scan the tier holds hit it %d times, want 2", tier.hits)
	}
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
