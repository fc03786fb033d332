package server

import (
	"container/list"
	"sync"

	"spio/internal/format"
)

// DecodedCacheStats is the decoded-block tier's counter snapshot.
type DecodedCacheStats struct {
	// Hits counts block lookups served already decoded; Misses counts
	// lookups that fell through to the compressed tier.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts decoded blocks pushed out by the capacity bound.
	Evictions int64 `json:"evictions"`
	// BytesFromCache counts decoded bytes served from the tier;
	// BytesDecoded counts decoded bytes inserted into it (each insert is
	// one inflate the working set will not pay again while it stays).
	BytesFromCache int64 `json:"bytes_from_cache"`
	BytesDecoded   int64 `json:"bytes_decoded"`
	// Used and Blocks describe current occupancy.
	Used   int64 `json:"used_bytes"`
	Blocks int   `json:"blocks"`
}

// DecodedCache is the decoded-block cache tier: whole decoded codec
// blocks (AoS record bytes), keyed by (file, block index), in front of
// the compressed-resident BlockCache. The two tiers trade capacity for
// latency — the compressed tier holds 3-5× more data per byte, the
// decoded tier answers without touching flate — so a hot working set
// pays inflate once while the long tail still avoids the disk.
//
// Unlike the compressed tier there is no singleflight: the racing
// window is one block decode (the underlying read is already
// singleflighted by the BlockCache), and a duplicated decode costs CPU
// once while a flight table would cost a map operation on every hit.
// Cached slices are immutable once inserted (format.DecodedBlockCache
// ownership contract).
type DecodedCache struct {
	capacity int64

	mu     sync.Mutex
	used   int64
	lru    *list.List // front = most recently used; values *decodedBlock
	blocks map[blockKey]*list.Element
	stats  DecodedCacheStats
}

type decodedBlock struct {
	key  blockKey
	recs []byte // immutable after insert
}

// NewDecodedCache returns a decoded-block tier bounded to capacityBytes
// of decoded records. capacityBytes <= 0 disables the tier (nil return).
func NewDecodedCache(capacityBytes int64) *DecodedCache {
	if capacityBytes <= 0 {
		return nil
	}
	return &DecodedCache{
		capacity: capacityBytes,
		lru:      list.New(),
		blocks:   make(map[blockKey]*list.Element),
	}
}

// Stats returns a snapshot of the tier's counters.
func (c *DecodedCache) Stats() DecodedCacheStats {
	if c == nil {
		return DecodedCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Used = c.used
	st.Blocks = c.lru.Len()
	return st
}

// ForFile returns the per-file view a DataFile is opened with (it has
// the shape of format.OpenOptions.Decoded); key must uniquely identify
// the file's content (spiod uses its path).
func (c *DecodedCache) ForFile(key string) format.DecodedBlockCache {
	return &fileDecodedCache{c: c, key: key}
}

type fileDecodedCache struct {
	c   *DecodedCache
	key string
}

func (f *fileDecodedCache) GetBlock(bi int) []byte {
	return f.c.get(blockKey{file: f.key, idx: int64(bi)})
}

func (f *fileDecodedCache) PutBlock(bi int, recs []byte) {
	f.c.put(blockKey{file: f.key, idx: int64(bi)}, recs)
}

func (f *fileDecodedCache) Holds(n int64) bool { return n <= f.c.capacity }

func (c *DecodedCache) get(k blockKey) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.blocks[k]
	if !ok {
		c.stats.Misses++
		return nil
	}
	b := el.Value.(*decodedBlock)
	c.lru.MoveToFront(el)
	c.stats.Hits++
	c.stats.BytesFromCache += int64(len(b.recs))
	return b.recs
}

func (c *DecodedCache) put(k blockKey, recs []byte) {
	if len(recs) == 0 || int64(len(recs)) > c.capacity {
		// A zero-length block adds 0 to used, so eviction could never
		// reclaim it; there is also nothing to save by caching it. A block
		// larger than the tier would push out every block in it and then
		// itself.
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.blocks[k]; dup {
		// Two callers raced on the same cold block; the first insert won
		// and its slice may already be shared. Keep it.
		return
	}
	el := c.lru.PushFront(&decodedBlock{key: k, recs: recs})
	c.blocks[k] = el
	c.used += int64(len(recs))
	c.stats.BytesDecoded += int64(len(recs))
	for c.used > c.capacity {
		back := c.lru.Back()
		if back == nil {
			return
		}
		b := back.Value.(*decodedBlock)
		c.lru.Remove(back)
		delete(c.blocks, b.key)
		c.used -= int64(len(b.recs))
		c.stats.Evictions++
	}
}
