// Package cache is spio's one cache: a cost-bounded, strictly-LRU map
// that loads what it misses. The reader's open-file cache, the serving
// daemon's block cache and its per-mount dataset cache are three
// instantiations of it, and the rules each of them learned one bug at a
// time are kept here, once:
//
//   - Pins are by entry, not by key. Acquire hands out the cache's own
//     entry and Release takes that entry back. An entry evicted while
//     pinned leaves the index at once; drop runs exactly once per loaded
//     value, when its entry is both out of the index and unpinned; a
//     re-acquire of the key meanwhile loads a fresh value into a fresh
//     entry, and the two never share a pin count.
//   - One load per cold key, however many callers race for it: the rest
//     wait for that load and count as hits. A failed load is not cached,
//     and every caller that waited on it gets its error.
//   - load and drop run with no cache lock held. Lock identity is by
//     class for spiolint's lockorder, so every instantiation shares
//     Cache.mu — and a dataset's drop enters a file cache.
//   - A value of cost 0 (it could never be evicted by a cost bound) or
//     costlier than the capacity (it would evict everything and then
//     itself) is returned but never indexed: it is dropped on its last
//     release, or at once when nobody pinned it.
//   - A hit takes the mutex once and allocates nothing.
package cache

import (
	"container/list"
	"sync"
)

// Cache maps keys to loaded values whose costs sum to at most its
// capacity, evicting the least recently used first. It is safe for
// concurrent use.
type Cache[K comparable, V any] struct {
	drop func(V) // nil: values are the collector's

	mu       sync.Mutex
	capacity int64
	used     int64
	// index holds the indexed entries and the ones being loaded; lru only
	// the indexed ones, front = most recently used, values *Entry[K, V].
	index map[K]*Entry[K, V]
	lru   list.List
	stats Stats
}

// Entry is a pinned value: what Acquire returns and Release takes back.
type Entry[K comparable, V any] struct {
	// Value is fixed once loaded; a holder only reads it.
	Value V

	c    *Cache[K, V]
	key  K
	cost int64
	pins int
	// elem is the entry's place in the LRU list: nil while it loads, and
	// again once it is out of the index (evicted, purged, never admitted).
	elem *list.Element
	// done is closed when the load has returned, after err and Value are
	// set; waiters counts the lookups parked on it, for Stats.HitCost.
	done    chan struct{}
	err     error
	waiters int64
}

// Stats is a counter snapshot. Every lookup is one hit or one miss: a
// miss ran load, a hit found the key indexed or being loaded. HitCost and
// LoadCost sum the costs of the values hits and (successful) loads
// returned; Evictions counts entries the capacity pushed out, not the ones
// Purge took.
type Stats struct {
	Hits, Misses, Evictions int64
	HitCost, LoadCost       int64
	Used                    int64 // summed cost of the indexed entries
	Len                     int   // indexed entries
}

// New returns a cache bounded to capacity. drop, when non-nil, is told of
// every loaded value the cache has let go of and nobody pins any more.
func New[K comparable, V any](capacity int64, drop func(V)) *Cache[K, V] {
	return &Cache[K, V]{capacity: max(capacity, 0), drop: drop, index: make(map[K]*Entry[K, V])}
}

// Acquire returns the pinned entry for k, calling load for its value and
// cost on a miss; hit reports that it did not. The entry's value is not
// dropped before the caller has handed the entry to Release.
func (c *Cache[K, V]) Acquire(k K, load func() (V, int64, error)) (e *Entry[K, V], hit bool, err error) {
	return c.lookup(k, 1, load)
}

// Get is Acquire without the pin, for values that stay usable after their
// drop (no drop at all: the collector owns them): the value may have been
// evicted, and dropped, by the time the caller looks at it.
func (c *Cache[K, V]) Get(k K, load func() (V, int64, error)) (V, error) {
	e, _, err := c.lookup(k, 0, load)
	if err != nil {
		var zero V
		return zero, err
	}
	return e.Value, nil
}

func (c *Cache[K, V]) lookup(k K, pin int, load func() (V, int64, error)) (*Entry[K, V], bool, error) {
	c.mu.Lock()
	if e := c.index[k]; e != nil {
		c.stats.Hits++
		e.pins += pin
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
			c.stats.HitCost += e.cost
			c.mu.Unlock()
			return e, true, nil
		}
		e.waiters++
		c.mu.Unlock()
		<-e.done
		if e.err != nil {
			return nil, true, e.err
		}
		return e, true, nil
	}
	e := &Entry[K, V]{c: c, key: k, pins: pin, done: make(chan struct{})}
	c.index[k] = e
	c.stats.Misses++
	c.mu.Unlock()

	v, cost, err := load()

	var dropped []V
	c.mu.Lock()
	if err != nil {
		e.err = err
		delete(c.index, k)
	} else {
		e.Value, e.cost = v, cost
		c.stats.LoadCost += cost
		c.stats.HitCost += e.waiters * cost
		if cost > 0 && cost <= c.capacity {
			e.elem = c.lru.PushFront(e)
			c.used += cost
			dropped = c.shrinkLocked(c.capacity, true)
		} else {
			delete(c.index, k)
			if e.pins == 0 && c.drop != nil {
				dropped = append(dropped, v)
			}
		}
	}
	c.mu.Unlock()
	close(e.done)
	c.dropAll(dropped)
	if err != nil {
		return nil, false, err
	}
	return e, false, nil
}

// Release unpins an entry Acquire returned.
func (c *Cache[K, V]) Release(e *Entry[K, V]) {
	c.mu.Lock()
	e.pins--
	if e.pins < 0 {
		c.mu.Unlock()
		panic("cache: Release of an entry that is not pinned")
	}
	last := e.pins == 0 && e.elem == nil
	c.mu.Unlock()
	if last && c.drop != nil {
		c.drop(e.Value)
	}
}

// Release unpins the entry, as its cache's Release does: a holder that
// has only the entry can end its pin.
func (e *Entry[K, V]) Release() { e.c.Release(e) }

// Resize changes the capacity, evicting down to it.
func (c *Cache[K, V]) Resize(capacity int64) {
	c.mu.Lock()
	c.capacity = max(capacity, 0)
	dropped := c.shrinkLocked(c.capacity, true)
	c.mu.Unlock()
	c.dropAll(dropped)
}

// Purge empties the index; it is teardown, not eviction, and is not
// counted as one. Pinned values are dropped on their release.
func (c *Cache[K, V]) Purge() {
	c.mu.Lock()
	dropped := c.shrinkLocked(0, false)
	c.mu.Unlock()
	c.dropAll(dropped)
}

// Each calls fn, with no lock held, for every value indexed when it was
// called, most recently used first.
func (c *Cache[K, V]) Each(fn func(K, V)) {
	c.mu.Lock()
	entries := make([]*Entry[K, V], 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		entries = append(entries, el.Value.(*Entry[K, V]))
	}
	c.mu.Unlock()
	for _, e := range entries {
		fn(e.key, e.Value)
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Used, st.Len = c.used, c.lru.Len()
	return st
}

// shrinkLocked takes entries out of the index, least recently used first,
// until they cost at most limit — counted as evictions or not — and
// returns the values to drop once the lock is released.
func (c *Cache[K, V]) shrinkLocked(limit int64, evictions bool) (dropped []V) {
	for c.used > limit {
		e := c.lru.Back().Value.(*Entry[K, V])
		c.lru.Remove(e.elem)
		e.elem = nil
		delete(c.index, e.key)
		c.used -= e.cost
		if evictions {
			c.stats.Evictions++
		}
		if e.pins == 0 && c.drop != nil {
			dropped = append(dropped, e.Value)
		}
	}
	return dropped
}

func (c *Cache[K, V]) dropAll(dropped []V) {
	for _, v := range dropped {
		c.drop(v)
	}
}
