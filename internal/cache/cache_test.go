package cache

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// val is a loaded value that knows how often the test pins it and how
// often the cache dropped it.
type val struct {
	key         int
	cost        int64
	pins, drops atomic.Int32
}

var errLoad = errors.New("load failed")

// Keys are 0..23; key k costs k%4 — so a quarter of them cost 0 and are
// never indexed, and the 3s are not either under a capacity of 2 — and
// the keys 10 and 21 fail to load.
func costOf(k int) int64  { return int64(k % 4) }
func loadable(k int) bool { return k%11 != 10 }

// harness drives one Cache[int, *val] and remembers every value it loaded.
type harness struct {
	t        *testing.T
	c        *Cache[int, *val]
	capacity atomic.Int64
	lookups  atomic.Int64
	mu       sync.Mutex
	loaded   []*val
}

func newHarness(t *testing.T, capacity int64) *harness {
	h := &harness{t: t}
	h.capacity.Store(capacity)
	h.c = New[int](capacity, func(v *val) {
		if n := v.pins.Load(); n != 0 {
			t.Errorf("value of key %d dropped under %d pins", v.key, n)
		}
		if n := v.drops.Add(1); n != 1 {
			t.Errorf("value of key %d dropped %d times", v.key, n)
		}
	})
	return h
}

func (h *harness) load(k int) func() (*val, int64, error) {
	return func() (*val, int64, error) {
		if !loadable(k) {
			return nil, 0, errLoad
		}
		v := &val{key: k, cost: costOf(k)}
		h.mu.Lock()
		h.loaded = append(h.loaded, v)
		h.mu.Unlock()
		return v, v.cost, nil
	}
}

// acquire pins k's value the way a user does, checking what came back.
func (h *harness) acquire(k int) *Entry[int, *val] {
	h.lookups.Add(1)
	e, _, err := h.c.Acquire(k, h.load(k))
	if err != nil {
		if loadable(k) || !errors.Is(err, errLoad) {
			h.t.Errorf("acquire %d: %v", k, err)
		}
		return nil
	}
	if e.Value.key != k || e.Value.drops.Load() != 0 {
		h.t.Errorf("acquire %d: got key %d's value after %d drops", k, e.Value.key, e.Value.drops.Load())
	}
	e.Value.pins.Add(1)
	return e
}

func (h *harness) release(e *Entry[int, *val]) {
	e.Value.pins.Add(-1)
	h.c.Release(e)
}

// check holds the cache to its invariants; call it when no other goroutine
// is using the cache. order, when non-nil, is the index it must hold, most
// recently used first.
func (h *harness) check(order []int) {
	h.t.Helper()
	st := h.c.Stats()
	indexed := map[*val]bool{}
	var used int64
	var keys []int
	h.c.Each(func(k int, v *val) {
		indexed[v] = true
		used += v.cost
		keys = append(keys, k)
	})
	if st.Used != used || st.Len != len(indexed) || used > h.capacity.Load() {
		h.t.Fatalf("used %d over %d entries, but the index holds %d over %d (capacity %d)", st.Used, st.Len, used, len(indexed), h.capacity.Load())
	}
	if st.Hits+st.Misses != h.lookups.Load() {
		h.t.Fatalf("%d hits + %d misses for %d lookups", st.Hits, st.Misses, h.lookups.Load())
	}
	if order != nil && !slices.Equal(keys, order) {
		h.t.Fatalf("index holds %v, the model %v", keys, order)
	}
	for _, v := range h.loaded {
		want := int32(0)
		if !indexed[v] && v.pins.Load() == 0 {
			want = 1
		}
		if got := v.drops.Load(); got != want {
			h.t.Fatalf("value of key %d (indexed %v, %d pins) dropped %d times, want %d", v.key, indexed[v], v.pins.Load(), got, want)
		}
	}
}

// model is the reference index: the keys held, most recently used first.
type model struct {
	order    []int
	capacity int64
}

func (m *model) lookup(k int) {
	if i := slices.Index(m.order, k); i >= 0 {
		m.order = slices.Insert(slices.Delete(m.order, i, i+1), 0, k)
	} else if loadable(k) && costOf(k) > 0 && costOf(k) <= m.capacity {
		m.order = slices.Insert(m.order, 0, k)
		m.shrink()
	}
}

func (m *model) shrink() {
	used := int64(0)
	for i, k := range m.order {
		if used += costOf(k); used > m.capacity {
			m.order = m.order[:i]
			return
		}
	}
}

// run makes ops random calls, holding up to four pins. With a model (one
// goroutine) the cache is checked against it after every call; only a
// resizer changes the capacity, so that the harness knows it.
func (h *harness) run(seed int64, ops int, resizer bool, m *model) {
	r := rand.New(rand.NewSource(seed))
	var held []*Entry[int, *val]
	for i := 0; i < ops; i++ {
		k := r.Intn(24) // the key looked up, or -1
		switch p := r.Intn(100); {
		case p < 45 && len(held) < 4:
			if e := h.acquire(k); e != nil {
				held = append(held, e)
			}
		case p < 60:
			h.lookups.Add(1)
			if v, err := h.c.Get(k, h.load(k)); err == nil && v.key != k {
				h.t.Errorf("get %d: got key %d's value", k, v.key)
			}
		case p < 92 && len(held) > 0:
			j := r.Intn(len(held))
			h.release(held[j])
			held, k = slices.Delete(held, j, j+1), -1
		case p < 97 && resizer:
			capacity := []int64{0, 2, 5, 9}[r.Intn(4)]
			h.c.Resize(capacity)
			h.capacity.Store(capacity)
			if m != nil {
				m.capacity = capacity
				m.shrink()
			}
			k = -1
		default:
			h.c.Purge()
			if m != nil {
				m.order = m.order[:0]
			}
			k = -1
		}
		if m != nil {
			if k >= 0 {
				m.lookup(k)
			}
			h.check(m.order)
		}
	}
	for _, e := range held {
		h.release(e)
	}
}

// TestMatchesModel: one goroutine, every call checked against the
// map-and-slice model — strict LRU, the admission rule, and every loaded
// value dropped exactly when it is out of the index and unpinned.
func TestMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		h := newHarness(t, 5)
		h.run(seed, 3000, true, &model{order: []int{}, capacity: 5})
		h.c.Purge()
		h.check([]int{})
	}
}

// TestInvariantsUnderConcurrency: eight goroutines, the same calls, the
// invariants checked at the quiescent point after each round.
func TestInvariantsUnderConcurrency(t *testing.T) {
	h := newHarness(t, 5)
	for round := int64(0); round < 20; round++ {
		var wg sync.WaitGroup
		for g := int64(0); g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				h.run(100*round+g, 400, g == 0, nil)
			}()
		}
		wg.Wait()
		h.check(nil)
	}
}

// TestForcedPinIdentity: an entry is evicted while pinned, its key is
// acquired again, and the pins are released oldest first. Pins are by
// entry: the old pin's release drops the old value and only that.
func TestForcedPinIdentity(t *testing.T) {
	h := newHarness(t, 1)
	const a, b = 1, 5  // both cost 1
	a1 := h.acquire(a) // pinned for the whole sequence
	b1 := h.acquire(b) // evicts a1 while it is pinned
	a2 := h.acquire(a) // a miss: loads a again beside the evicted, pinned a1
	if a1 == a2 || a1.Value == a2.Value {
		t.Fatal("re-acquire of an evicted-but-pinned key reused the old entry")
	}
	h.check([]int{a})
	h.release(a1) // the bad order: the old pin goes first
	if a1.Value.drops.Load() != 1 || a2.pins != 1 {
		t.Fatalf("releasing the old pin: old value dropped %d times, new entry has %d pins", a1.Value.drops.Load(), a2.pins)
	}
	b2 := h.acquire(b) // evicts a2 while it is pinned
	h.check([]int{b})
	for _, e := range []*Entry[int, *val]{a2, b1, b2} {
		h.release(e)
	}
	h.check([]int{b})
	if len(h.loaded) != 4 {
		t.Fatalf("%d loads, want 4", len(h.loaded))
	}
}

// parked starts n goroutines that each Acquire k and reports what they got
// once they return; it returns when all of them are inside the cache: the
// first loading (parked in load on the gate), the rest waiting on it. The
// cache must be fresh.
func parked(c *Cache[int, *val], k, n int, load func() (*val, int64, error)) (results func() ([]*Entry[int, *val], []error)) {
	entries, errs := make([]*Entry[int, *val], n), make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			entries[i], _, errs[i] = c.Acquire(k, load)
		}()
	}
	for st := c.Stats(); st.Hits+st.Misses < int64(n); st = c.Stats() {
		runtime.Gosched()
	}
	return func() ([]*Entry[int, *val], []error) { wg.Wait(); return entries, errs }
}

// TestForcedEvictionRacesFlight: a load is parked with seven waiters on
// it while other keys are swept through the one-slot cache; released, its
// value is indexed, handed to every waiter, and evicted by the next
// insert while they pin it — dropped once, on the last release.
func TestForcedEvictionRacesFlight(t *testing.T) {
	h := newHarness(t, 1)
	gate := make(chan struct{})
	var loads atomic.Int32
	results := parked(h.c, 1, 8, func() (*val, int64, error) {
		loads.Add(1)
		<-gate
		return h.load(1)()
	})
	h.lookups.Add(8)
	for _, k := range []int{5, 9, 13, 5, 9} {
		h.release(h.acquire(k))
	}
	close(gate)
	entries, errs := results()
	for i, e := range entries {
		if errs[i] != nil || e != entries[0] {
			t.Fatalf("waiter %d: entry %p, error %v; waiter 0 has %p", i, e, errs[i], entries[0])
		}
		e.Value.pins.Add(1)
	}
	if st := h.c.Stats(); loads.Load() != 1 || st.Hits != 7 || st.HitCost != 7 {
		t.Errorf("%d loads, stats %+v: want one load and seven hits of cost 1", loads.Load(), st)
	}
	h.check([]int{1})
	h.release(h.acquire(5)) // evicts the value all eight still pin
	h.check([]int{5})
	for _, e := range entries {
		h.release(e)
	}
	h.check([]int{5})
}

// TestForcedFailedLoadWaiters: a failing load is not cached, and every
// caller that waited on it gets its error.
func TestForcedFailedLoadWaiters(t *testing.T) {
	h := newHarness(t, 4)
	gate := make(chan struct{})
	var loads atomic.Int32
	results := parked(h.c, 1, 6, func() (*val, int64, error) {
		loads.Add(1)
		<-gate
		return nil, 0, errLoad
	})
	h.lookups.Add(6)
	close(gate)
	entries, errs := results()
	for i := range entries {
		if entries[i] != nil || !errors.Is(errs[i], errLoad) {
			t.Errorf("waiter %d: entry %v, error %v", i, entries[i], errs[i])
		}
	}
	if loads.Load() != 1 {
		t.Errorf("%d loads for one cold key", loads.Load())
	}
	h.check([]int{})
	h.release(h.acquire(1)) // the failure was not cached: this one loads
	h.check([]int{1})
}

// TestForcedResizeToZero: a cache resized to nothing under its users still
// serves them — what it holds is dropped on release, what is loaded
// through it is returned, never indexed, and dropped on release too.
func TestForcedResizeToZero(t *testing.T) {
	h := newHarness(t, 2)
	a := h.acquire(1)
	h.c.Resize(0)
	h.capacity.Store(0)
	h.check([]int{})
	b1, b2 := h.acquire(5), h.acquire(5)
	if b1 == b2 || len(h.loaded) != 3 {
		t.Fatalf("two acquires through a cache of capacity 0 shared an entry (%d loads)", len(h.loaded))
	}
	h.check([]int{})
	for _, e := range []*Entry[int, *val]{a, b1, b2} {
		h.release(e)
	}
	h.check([]int{})
}

// TestHitsAllocateNothing: a hit, pinned or not, is one map lookup, one
// list move and four counters.
func TestHitsAllocateNothing(t *testing.T) {
	c := New[int, *val](4, func(*val) {})
	v := &val{}
	load := func() (*val, int64, error) { return v, 1, nil }
	c.Get(7, load)
	if n := testing.AllocsPerRun(100, func() {
		e, _, _ := c.Acquire(7, load)
		e.Release()
	}); n != 0 {
		t.Errorf("a pinned hit allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { c.Get(7, load) }); n != 0 {
		t.Errorf("a pin-free hit allocates %v times", n)
	}
}
