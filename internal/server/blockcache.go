// Package server is spio's resident dataset-serving subsystem: a
// long-lived daemon (cmd/spiod) that mounts dataset directories and
// serves the existing query surface — box reads, KNN, halos, density
// grids, level ranges of the LOD prefix — to many concurrent clients
// over a compact length-prefixed binary protocol on TCP or Unix sockets.
//
// The subsystem owns what the in-process read path cannot provide to a
// fleet of independent clients:
//
//   - a shared, size-bounded block cache layered under each dataset's
//     open-file cache; a block is loaded once, and a query that wants
//     it meanwhile waits for that load (blockcache.go, internal/cache);
//   - an admission controller — bounded worker pool, queue-depth limit
//     with fast-fail (ErrOverloaded), per-request response byte
//     budgets, graceful drain on shutdown (admission.go, server.go);
//   - one request, one response: a progressive read is a client-side
//     cursor issuing one level-range query per level, so the server
//     holds nothing between two levels (front.go, client.go);
//   - an observability surface: per-request counters aggregated into a
//     JSON /metrics snapshot (metrics.go).
//
// Frames are written and read through internal/binio in encodeX/decodeX
// pairs (wire.go), each pinned by a round-trip test.
package server

import (
	"errors"
	"io"
	"io/fs"
	"sync/atomic"

	"spio/internal/cache"
	"spio/internal/particle"
)

// BlockCacheStats is the shared block cache's counter snapshot. Hits,
// Misses, the two byte counts and Blocks are about file blocks alone;
// the cell indexes kept beside them have counters of their own.
type BlockCacheStats struct {
	// Hits counts block lookups served from memory (including waits on
	// another request's in-flight load).
	Hits int64 `json:"hits"`
	// Misses counts block loads that went to disk.
	Misses int64 `json:"misses"`
	// Evictions counts entries, blocks or indexes, pushed out by the
	// capacity bound.
	Evictions int64 `json:"evictions"`
	// BytesFromCache and BytesFromDisk split served block bytes by
	// origin.
	BytesFromCache int64 `json:"bytes_from_cache"`
	BytesFromDisk  int64 `json:"bytes_from_disk"`
	// Used is the bytes held under the capacity, blocks and indexes;
	// Blocks counts the blocks among them.
	Used   int64 `json:"used_bytes"`
	Blocks int   `json:"blocks"`
	// IndexBuilds counts the cell indexes built from blocks, a failed
	// build included, and IndexBuildBytes their size; Indexes and
	// IndexBytes are the ones held now, their bytes part of Used.
	IndexBuilds     int64 `json:"index_builds"`
	IndexBuildBytes int64 `json:"index_build_bytes"`
	Indexes         int   `json:"indexes"`
	IndexBytes      int64 `json:"index_bytes"`
}

// BlockCache is a shared, size-bounded cache of fixed-size file blocks,
// layered under the per-dataset open-file caches: every payload read of
// every mounted dataset goes through it, so concurrent clients querying
// overlapping regions hit memory instead of multiplying disk reads.
// It is a cache.Cache whose cost is a block's size: N queries racing on
// a cold block do one disk read and share the bytes.
//
// Blocks are recycled. A miss fills a block-sized buffer from the cache's
// pool, and the cache's drop hook puts it back once the block is both
// evicted and unleased; a tail block under half a block is held at its
// own size and left to the collector. A block is only ever read under a pin —
// ViewAt lends it with the pinned entry as the lease — so no reader sees
// a recycled block refilled. What stays resident is the indexed blocks
// (at most the capacity), the evicted blocks still leased (at most one
// per running scan), and what the pool was handed in the last two
// collections.
//
// Beside a file's blocks the cache keeps what a raw scan derives from
// them, the cell index of each chunk of records (Derive), under the same
// bound and leased the same way; an index costs its length, is built
// from blocks the cache serves, and is the collector's once dropped.
//
// Cached blocks are immutable once inserted; the cache assumes data
// files are immutable once published (spio writes them via atomic
// rename and never mutates them in place).
type BlockCache struct {
	blockSize int64
	blocks    *cache.Cache[blockKey, cached]
	// pool holds buffers blockSize long. It is an allocation of its own:
	// a pool holding something is kept alive by its cleanup for up to two
	// collections, and that should not keep the cache's blocks.
	pool *particle.Pool[[]byte]
	// held counts the blocks out of pool: indexed, leased or being
	// filled. It is zero once nothing is indexed or leased.
	held atomic.Int64
	// The index entries' share of the cache's lookups, which Stats takes
	// out of the blocks'; the block bytes served from memory and read
	// from disk, which a tail block's cost overstates.
	indexHits, indexBuilds, indexBuildBytes atomic.Int64
	bytesFromCache, bytesFromDisk           atomic.Int64
}

// blockKey names an entry: block idx of a file, or, when index is set,
// the cell index of the file's idx'th chunk of records.
type blockKey struct {
	file  string
	idx   int64
	index bool
}

// cached is an entry's value; pooled marks a block-sized buffer of the
// pool, the only kind the drop hook recycles.
type cached struct {
	data   []byte
	pooled bool
}

// DefaultBlockSize is the block granularity when none is configured.
const DefaultBlockSize = 256 << 10

// NewBlockCache returns a cache bounded to capacityBytes of block data,
// loading blockSize-aligned blocks (0 means DefaultBlockSize).
func NewBlockCache(capacityBytes int64, blockSize int) *BlockCache {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	c := &BlockCache{blockSize: int64(blockSize), pool: &particle.Pool[[]byte]{New: func() []byte { return make([]byte, blockSize) }}}
	c.blocks = cache.New[blockKey, cached](max(capacityBytes, int64(blockSize)), func(v cached) {
		if v.pooled {
			c.recycle(v.data)
		}
	})
	return c
}

// getBlock takes a block-sized buffer out of the pool, or makes one.
func (c *BlockCache) getBlock() []byte {
	c.held.Add(1)
	return c.pool.Get()
}

// recycle puts a buffer getBlock handed out back in the pool, at its full
// length: a tail block is a prefix of it.
func (c *BlockCache) recycle(b []byte) {
	c.held.Add(-1)
	b = b[:cap(b)]
	c.pool.Put(b)
}

// Stats returns a snapshot of the cache counters. The index counters are
// kept apart from the cache's own and taken out of them, so a snapshot
// taken while an index is being looked up may count that lookup as a
// block's.
func (c *BlockCache) Stats() BlockCacheStats {
	st := c.blocks.Stats()
	out := BlockCacheStats{
		Hits:            st.Hits - c.indexHits.Load(),
		Misses:          st.Misses - c.indexBuilds.Load(),
		Evictions:       st.Evictions,
		BytesFromCache:  c.bytesFromCache.Load(),
		BytesFromDisk:   c.bytesFromDisk.Load(),
		Used:            st.Used,
		IndexBuilds:     c.indexBuilds.Load(),
		IndexBuildBytes: c.indexBuildBytes.Load(),
	}
	c.blocks.Each(func(k blockKey, v cached) {
		if k.index {
			out.Indexes++
			out.IndexBytes += int64(len(v.data))
		}
	})
	out.Blocks = st.Len - out.Indexes
	return out
}

// ReaderFor returns an io.ReaderAt serving key's bytes from the cache,
// falling back to base block-by-block on misses. key must uniquely
// identify base's content (spiod uses the data file's path).
func (c *BlockCache) ReaderFor(key string, base io.ReaderAt) io.ReaderAt {
	return &cachedReaderAt{c: c, key: key, base: base}
}

type cachedReaderAt struct {
	c    *BlockCache
	key  string
	base io.ReaderAt
}

// ReadAt implements io.ReaderAt over the cached blocks. A read past the
// end of the underlying file returns io.EOF with the bytes that exist,
// per the io.ReaderAt contract.
func (r *cachedReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n := 0
	for n < len(p) {
		v, lease, err := r.ViewAt(off + int64(n))
		if err != nil {
			return n, err
		}
		n += copy(p[n:], v)
		lease.Release()
	}
	return n, nil
}

// ViewAt lends the cached bytes at off instead of copying them: the rest
// of the block that holds off, at least one byte, or io.EOF at the end
// of the file. The view comes with a lease, the block's pinned cache
// entry: the block is neither dropped nor refilled until the caller has
// called the lease's Release, and the view is dead from then on. The
// caller must not write it. It is what lets a raw scan test the hot bytes
// where they are (format.DataFile.Scan). The lease is the entry itself,
// not a closure over it, so a hit allocates nothing.
func (r *cachedReaderAt) ViewAt(off int64) (view []byte, lease interface{ Release() }, err error) {
	if off < 0 {
		// Match os.File.ReadAt semantics: a negative offset is a caller
		// bug, not a truncation — don't misreport it as one.
		return nil, nil, &fs.PathError{Op: "readat", Path: r.key, Err: errors.New("negative offset")}
	}
	bs := r.c.blockSize
	idx := off / bs
	e, hit, err := r.c.blocks.Acquire(blockKey{file: r.key, idx: idx}, func() (cached, int64, error) {
		return r.readBlock(idx)
	})
	if err != nil {
		return nil, nil, err
	}
	if hit {
		r.c.bytesFromCache.Add(int64(len(e.Value.data)))
	}
	if bo := off % bs; bo < int64(len(e.Value.data)) {
		return e.Value.data[bo:], e, nil
	}
	e.Release()
	return nil, nil, io.EOF
}

// Derive returns the file's image idx, which build makes — the cell index
// of a chunk of records, built from the blocks ViewAt lends — and the
// cache keeps beside the blocks, its length its cost, until the capacity
// pushes it out. It comes with a lease, the pinned entry, as a view does,
// and a hit allocates nothing.
func (r *cachedReaderAt) Derive(idx int64, build func() ([]byte, error)) (img []byte, lease interface{ Release() }, err error) {
	e, hit, err := r.c.blocks.Acquire(blockKey{file: r.key, idx: idx, index: true}, func() (cached, int64, error) {
		img, err := build()
		r.c.indexBuilds.Add(1)
		r.c.indexBuildBytes.Add(int64(len(img)))
		return cached{data: img}, int64(len(img)), err
	})
	if hit {
		r.c.indexHits.Add(1)
	}
	if err != nil {
		return nil, nil, err
	}
	return e.Value.data, e, nil
}

// readBlock reads block idx of the file from base into a pooled buffer.
// A block, or a tail block filling at least half of it, stays in the
// buffer and costs the block size, the memory it pins; a shorter tail is
// copied out and costs its length, so a small file does not take a block
// of the capacity. A read exactly at EOF (any file sized a multiple of
// the block size ends with one) yields an empty block of cost 0, which
// the cache returns and does not keep.
func (r *cachedReaderAt) readBlock(idx int64) (cached, int64, error) {
	buf := r.c.getBlock()
	n, err := r.base.ReadAt(buf, idx*r.c.blockSize)
	if err != nil && err != io.EOF { // a short tail block is a valid block
		r.c.recycle(buf)
		return cached{}, 0, err
	}
	r.c.bytesFromDisk.Add(int64(n))
	if n < len(buf)/2 {
		tail := append(make([]byte, 0, n), buf[:n]...)
		r.c.recycle(buf)
		return cached{data: tail}, int64(n), nil
	}
	return cached{data: buf[:n], pooled: true}, r.c.blockSize, nil
}
