package reader

import (
	"container/list"
	"sync"

	"spio/internal/format"
)

// fileCache keeps data-file handles open across queries. The Fig. 7/8
// analysis shows opens dominating low-volume reads on parallel file
// systems; an interactive viewer issuing repeated box queries against
// the same dataset pays that cost once per file with the cache enabled.
//
// Entries are reference-counted and pinned by identity: acquire hands
// out the entry, release takes it back. Eviction drops an entry from
// the name index at once and closes its handle when that entry's own
// last pin is released, so a reopen of the same name while the old
// handle is still being read gets a fresh entry and the two never share
// a refcount.
type fileCache struct {
	mu        sync.Mutex
	capacity  int
	entries   map[string]*cacheEntry // live (not evicted) entries only
	lru       *list.List             // front = most recently used; element value: *cacheEntry
	hits      int64
	misses    int64
	evictions int64
	// bytesFromCache counts payload bytes read through hit handles.
	bytesFromCache int64
}

type cacheEntry struct {
	name    string
	df      *format.DataFile
	refs    int
	evicted bool // out of the index; close when refs drops to 0
	elem    *list.Element
}

func newFileCache(capacity int) *fileCache {
	return &fileCache{
		capacity: capacity,
		entries:  make(map[string]*cacheEntry),
		lru:      list.New(),
	}
}

// acquire returns a pinned entry holding an open handle for name,
// opening the file on a miss. opened reports whether a real open
// happened. The caller must release the entry it was given.
func (fc *fileCache) acquire(d *Dataset, name string) (e *cacheEntry, opened bool, err error) {
	fc.mu.Lock()
	if e := fc.pinLocked(name); e != nil {
		fc.hits++
		fc.mu.Unlock()
		return e, false, nil
	}
	fc.misses++
	fc.mu.Unlock()

	// Open outside the lock; a racing open of the same file just wastes
	// one descriptor briefly.
	df, err := d.openDataFile(name)
	if err != nil {
		return nil, true, err
	}
	fc.mu.Lock()
	if e := fc.pinLocked(name); e != nil {
		// Lost the race: use the cached one and discard ours.
		fc.mu.Unlock()
		_ = df.Close() // read-only duplicate handle
		return e, true, nil
	}
	e = &cacheEntry{name: name, df: df, refs: 1}
	e.elem = fc.lru.PushFront(e)
	fc.entries[name] = e
	fc.evictLocked()
	fc.mu.Unlock()
	return e, true, nil
}

// pinLocked pins and returns the live entry for name, or nil.
func (fc *fileCache) pinLocked(name string) *cacheEntry {
	e := fc.entries[name]
	if e == nil {
		return nil
	}
	e.refs++
	fc.lru.MoveToFront(e.elem)
	return e
}

// release unpins an entry returned by acquire. An evicted entry closes
// when its own last pin goes, whatever the index holds for its name by
// then.
func (fc *fileCache) release(e *cacheEntry) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	e.refs--
	if e.evicted && e.refs <= 0 {
		_ = e.df.Close() // read-only handle evicted from the cache
	}
}

// dropLocked takes e out of the index and the LRU list, closing its
// handle now if idle and on its last release otherwise.
func (fc *fileCache) dropLocked(e *cacheEntry) error {
	fc.lru.Remove(e.elem)
	delete(fc.entries, e.name)
	e.evicted = true
	if e.refs <= 0 {
		return e.df.Close()
	}
	return nil
}

// evictLocked shrinks the cache to capacity, least recently used first.
func (fc *fileCache) evictLocked() {
	for fc.lru.Len() > fc.capacity {
		fc.evictions++
		_ = fc.dropLocked(fc.lru.Back().Value.(*cacheEntry)) // read-only handle evicted from the cache
	}
}

// closeAll closes every idle handle and flags busy ones.
func (fc *fileCache) closeAll() error {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	var first error
	for _, e := range fc.entries {
		if err := fc.dropLocked(e); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SetFileCache enables (n > 0) or disables (n <= 0) the open-file cache.
// Disabling closes all idle cached handles. It is safe to call while
// queries run: a query uses the cache it found when it started.
func (d *Dataset) SetFileCache(n int) error {
	d.setCache.Lock()
	defer d.setCache.Unlock()
	fc := d.cache.Load()
	switch {
	case n > 0 && fc == nil:
		d.cache.Store(newFileCache(n))
	case n > 0:
		fc.mu.Lock()
		fc.capacity = n
		fc.evictLocked()
		fc.mu.Unlock()
	case fc != nil:
		d.cache.Store(nil)
		// A scan that loaded fc before this still opens through it: with
		// no capacity left, what it opens is dropped from the index at
		// once and closed on its release.
		fc.mu.Lock()
		fc.capacity = 0
		fc.mu.Unlock()
		return fc.closeAll()
	}
	return nil
}

// noteBytes credits payload bytes read through a cached (hit) handle.
func (fc *fileCache) noteBytes(n int64) {
	fc.mu.Lock()
	fc.bytesFromCache += n
	fc.mu.Unlock()
}

// CacheStats is the open-file cache's counter snapshot.
type CacheStats struct {
	// Hits and Misses count acquire outcomes.
	Hits, Misses int64
	// Evictions counts handles pushed out by the capacity bound
	// (explicit disable/Close teardown is not an eviction).
	Evictions int64
	// BytesFromCache counts payload bytes served through hit handles.
	BytesFromCache int64
}

// CacheStats reports the open-file cache's counters (zeros when the
// cache is disabled).
func (d *Dataset) CacheStats() CacheStats {
	fc := d.cache.Load()
	if fc == nil {
		return CacheStats{}
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return CacheStats{
		Hits:           fc.hits,
		Misses:         fc.misses,
		Evictions:      fc.evictions,
		BytesFromCache: fc.bytesFromCache,
	}
}

// Close releases any cached file handles. The Dataset remains usable
// (subsequent reads reopen files).
func (d *Dataset) Close() error {
	if fc := d.cache.Load(); fc != nil {
		return fc.closeAll()
	}
	return nil
}
