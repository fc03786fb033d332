package reader

import (
	"sync/atomic"

	"spio/internal/cache"
	"spio/internal/format"
)

// fileCache keeps data-file handles open across queries. The Fig. 7/8
// analysis shows opens dominating low-volume reads on parallel file
// systems; an interactive viewer issuing repeated box queries against
// the same dataset pays that cost once per file with the cache enabled.
//
// It is a cache.Cache of slots: every handle costs 1, a scan pins the
// handle it reads through (scanFile), and a handle is closed when it is
// both evicted and unpinned.
type fileCache struct {
	*cache.Cache[string, *format.DataFile]
	// bytesFromCache counts payload bytes read through hit handles.
	bytesFromCache atomic.Int64
}

func newFileCache(capacity int) *fileCache {
	return &fileCache{Cache: cache.New[string](int64(capacity), func(df *format.DataFile) {
		_ = df.Close() // read-only handle the cache has let go of
	})}
}

// acquire returns a pinned entry holding an open handle for name,
// opening the file on a miss. The caller must Release the entry.
func (fc *fileCache) acquire(d *Dataset, name string) (e *cache.Entry[string, *format.DataFile], hit bool, err error) {
	return fc.Acquire(name, func() (*format.DataFile, int64, error) {
		df, err := d.openDataFile(name)
		return df, 1, err
	})
}

// SetFileCache enables (n > 0) or disables (n <= 0) the open-file cache.
// Disabling closes all idle cached handles. It is safe to call while
// queries run: a query uses the cache it found when it started. The
// error is nil: closing a handle that was only read has nothing to report.
func (d *Dataset) SetFileCache(n int) error {
	d.setCache.Lock()
	defer d.setCache.Unlock()
	fc := d.cache.Load()
	switch {
	case n > 0 && fc == nil:
		d.cache.Store(newFileCache(n))
	case n > 0:
		fc.Resize(int64(n))
	case fc != nil:
		d.cache.Store(nil)
		// A scan that loaded fc before this still opens through it: with
		// no capacity left, what it opens is never indexed and is closed on
		// its release.
		fc.Resize(0)
	}
	return nil
}

// CacheStats is the open-file cache's counter snapshot.
type CacheStats struct {
	// Hits and Misses count acquire outcomes.
	Hits, Misses int64
	// Evictions counts handles pushed out by the capacity bound
	// (Close's teardown is not an eviction).
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
	st := fc.Stats()
	return CacheStats{Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions, BytesFromCache: fc.bytesFromCache.Load()}
}

// Close releases any cached file handles. The Dataset remains usable
// (subsequent reads reopen files).
func (d *Dataset) Close() error {
	if fc := d.cache.Load(); fc != nil {
		fc.Purge()
	}
	return nil
}
