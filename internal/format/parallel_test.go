package format

import (
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

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
	cf, err := OpenDataFile(comp)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	tier := newMapDecodedCache(0)
	cf.SetDecodedCache(tier)

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
// through ONE DataFile — shared decode fan-out, shared decoded tier,
// shared readahead state — and every result must match the raw ground
// truth. GOMAXPROCS is raised so the workers genuinely interleave on
// the single-CPU CI machine.
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
		cf, err := OpenDataFile(comp)
		if err != nil {
			t.Fatal(err)
		}
		if tier {
			cf.SetDecodedCache(newMapDecodedCache(0))
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
						hi = 1 + r.Int63n(count) // prefix: arms the readahead
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
		cf.raWG.Wait() // readahead must settle before the file closes under -race
		if err := cf.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSequentialReadaheadWarmsTier pins the prefetch contract: a
// sequential (prefix-shaped) read arms a readahead of the next block,
// which lands whole in the decoded tier before any foreground read
// wants it.
func TestSequentialReadaheadWarmsTier(t *testing.T) {
	_, comp, _ := writeCodecPair(t, 6000, particle.LosslessSpec(particle.Uintah()), false)
	cf, err := OpenDataFile(comp)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	if len(cf.blockRecs) < 4 {
		t.Skipf("only %d blocks; need 3+ for a readahead target", len(cf.blockRecs)-1)
	}
	tier := newMapDecodedCache(0)
	cf.SetDecodedCache(tier)

	// A prefix read covering block 0 only: blocks [0,1) decode, block 1
	// is the readahead target.
	if _, err := cf.ReadRange(0, cf.blockRecs[1]); err != nil {
		t.Fatal(err)
	}
	cf.raWG.Wait()
	tier.mu.Lock()
	_, warmed := tier.blocks[1]
	tier.mu.Unlock()
	if !warmed {
		t.Error("sequential prefix read did not warm the next block into the decoded tier")
	}

	// A random (non-sequential) read must not arm it: block 3 stays cold
	// after a read ending inside block 2 that did not start at lastHi.
	cold, err := OpenDataFile(comp)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	tier2 := newMapDecodedCache(0)
	cold.SetDecodedCache(tier2)
	cold.lastHi.Store(-1) // no prior read
	mid := cold.blockRecs[2] + 1
	if _, err := cold.ReadRange(mid, cold.blockRecs[3]); err != nil {
		t.Fatal(err)
	}
	cold.raWG.Wait()
	tier2.mu.Lock()
	_, armed := tier2.blocks[3]
	tier2.mu.Unlock()
	if armed {
		t.Error("non-sequential read armed the readahead")
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

// TestScanGoesAroundTierItCannotFit pins the bypass rule: a scan whose
// blocks decode to more than the decoded tier holds neither asks it, nor
// fills it, nor parks its readahead there — under LRU it would evict its
// own head before it could come back to it — while its readahead still
// warms the compressed bytes under the seam; a scan the tier can hold
// uses it exactly as before.
func TestScanGoesAroundTierItCannotFit(t *testing.T) {
	_, comp, _ := writeCodecPair(t, 6000, particle.LosslessSpec(particle.Uintah()), false)
	cf, err := OpenDataFile(comp)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	if len(cf.blockRecs) < 5 {
		t.Skipf("only %d blocks", len(cf.blockRecs)-1)
	}
	stride := int64(cf.Header.Schema.Stride())
	seam := &countingReaderAt{ReaderAt: cf.ReaderAt()}
	cf.SetReaderAt(seam)
	// Room for blocks 0..2 together, not for 0..3.
	tier := newMapDecodedCache(cf.blockRecs[3] * stride)
	cf.SetDecodedCache(tier)

	// Too large, sequential (starts at 0) and ending before the file does:
	// blocks 0..3 are read, block 4 is the readahead target.
	if _, err := cf.ReadRange(0, cf.blockRecs[3]+1); err != nil {
		t.Fatal(err)
	}
	cf.raWG.Wait()
	if tier.gets != 0 || tier.puts != 0 {
		t.Errorf("a scan too large for the tier asked it %d times and offered it %d blocks", tier.gets, tier.puts)
	}
	if got := seam.reads.Load(); got != 5 {
		t.Errorf("%d reads through the seam, want the scan's 4 blocks and the readahead's 1", got)
	}

	// Small enough: the tier is filled, and warmed with the next block.
	if _, err := cf.ReadRange(0, cf.blockRecs[2]); err != nil {
		t.Fatal(err)
	}
	cf.raWG.Wait()
	if tier.puts != 3 || tier.blocks[2] == nil {
		t.Errorf("a scan the tier holds left %d blocks in it, want blocks 0, 1 and the readahead's 2", tier.puts)
	}
	if _, err := cf.ReadRange(0, cf.blockRecs[2]); err != nil {
		t.Fatal(err)
	}
	cf.raWG.Wait()
	if tier.hits < 2 {
		t.Errorf("the repeat of a scan the tier holds hit it %d times", tier.hits)
	}
}
