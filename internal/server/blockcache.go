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
// pairs (wire.go), so `spiolint wiresym` checks every request/response
// pair statically.
package server

import (
	"errors"
	"io"
	"io/fs"

	"spio/internal/cache"
)

// BlockCacheStats is the shared block cache's counter snapshot.
type BlockCacheStats struct {
	// Hits counts block lookups served from memory (including waits on
	// another request's in-flight load).
	Hits int64 `json:"hits"`
	// Misses counts block loads that went to disk.
	Misses int64 `json:"misses"`
	// Evictions counts blocks pushed out by the capacity bound.
	Evictions int64 `json:"evictions"`
	// BytesFromCache and BytesFromDisk split served block bytes by
	// origin.
	BytesFromCache int64 `json:"bytes_from_cache"`
	BytesFromDisk  int64 `json:"bytes_from_disk"`
	// Used and Blocks describe current occupancy.
	Used   int64 `json:"used_bytes"`
	Blocks int   `json:"blocks"`
}

// BlockCache is a shared, size-bounded cache of fixed-size file blocks,
// layered under the per-dataset open-file caches: every payload read of
// every mounted dataset goes through it, so concurrent clients querying
// overlapping regions hit memory instead of multiplying disk reads.
// It is a cache.Cache whose cost is a block's length: N queries racing on
// a cold block do one disk read and share the bytes.
//
// Cached blocks are immutable once inserted; the cache assumes data
// files are immutable once published (spio writes them via atomic
// rename and never mutates them in place).
type BlockCache struct {
	blockSize int64
	blocks    *cache.Cache[blockKey, []byte]
}

type blockKey struct {
	file string
	idx  int64
}

// DefaultBlockSize is the block granularity when none is configured.
const DefaultBlockSize = 256 << 10

// NewBlockCache returns a cache bounded to capacityBytes of block data,
// loading blockSize-aligned blocks (0 means DefaultBlockSize).
func NewBlockCache(capacityBytes int64, blockSize int) *BlockCache {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	return &BlockCache{
		blockSize: int64(blockSize),
		blocks:    cache.New[blockKey, []byte](max(capacityBytes, int64(blockSize)), nil),
	}
}

// Stats returns a snapshot of the cache counters.
func (c *BlockCache) Stats() BlockCacheStats {
	st := c.blocks.Stats()
	return BlockCacheStats{
		Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions,
		BytesFromCache: st.HitCost, BytesFromDisk: st.LoadCost,
		Used: st.Used, Blocks: st.Len,
	}
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
		v, err := r.ViewAt(off + int64(n))
		if err != nil {
			return n, err
		}
		n += copy(p[n:], v)
	}
	return n, nil
}

// ViewAt lends the cached bytes at off instead of copying them: the rest
// of the block that holds off, at least one byte, or io.EOF at the end
// of the file. A cached block is immutable and its slice outlives its
// eviction (the cache only forgets it), so a view needs neither a copy
// nor a pin; the caller must not write it. It is what lets a raw scan
// test the hot bytes where they are (format.DataFile.Scan).
func (r *cachedReaderAt) ViewAt(off int64) ([]byte, error) {
	if off < 0 {
		// Match os.File.ReadAt semantics: a negative offset is a caller
		// bug, not a truncation — don't misreport it as one.
		return nil, &fs.PathError{Op: "readat", Path: r.key, Err: errors.New("negative offset")}
	}
	bs := r.c.blockSize
	idx := off / bs
	data, err := r.c.blocks.Get(blockKey{file: r.key, idx: idx}, func() ([]byte, int64, error) {
		return r.readBlock(idx)
	})
	if err != nil {
		return nil, err
	}
	if bo := off % bs; bo < int64(len(data)) {
		return data[bo:], nil
	}
	return nil, io.EOF
}

// readBlock reads block idx of the file from base. A read exactly at EOF
// (any file sized a multiple of the block size ends with one) yields an
// empty block of cost 0, which the cache returns and does not keep.
func (r *cachedReaderAt) readBlock(idx int64) ([]byte, int64, error) {
	buf := make([]byte, r.c.blockSize)
	n, err := r.base.ReadAt(buf, idx*r.c.blockSize)
	if err != nil && err != io.EOF { // a short tail block is a valid block
		return nil, 0, err
	}
	if n < len(buf) {
		// A file's tail block is held at its own size: as a prefix of buf
		// it would pin the whole blockSize array while the cache counts n.
		buf = append(make([]byte, 0, n), buf[:n]...)
	}
	return buf, int64(n), nil
}
