package particle

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a free list: a stack under one mutex, so the next Get on any
// goroutine takes what the last Put on any goroutine returned. (The
// standard library's pool keeps a returned value in the private slot of
// the P that returned it, where a Get on another P does not look: on many
// Ps a warm write kept missing.) As in that pool, a value that lies unused
// through two collections is dropped. The zero Pool is empty and ready;
// it must not be copied once used.
type Pool[T any] struct {
	// New, when set, makes what Get returns from an empty pool; otherwise
	// that is the zero T.
	New func() T

	mu    sync.Mutex
	free  []held[T] // oldest first
	epoch uint32    // collections seen while holding something
	armed bool      // a sentinel's cleanup will call collected
}

type held[T any] struct {
	v     T
	epoch uint32
}

// Get takes the value last put, or a new one.
func (p *Pool[T]) Get() T {
	p.mu.Lock()
	if n := len(p.free) - 1; n >= 0 {
		v := p.free[n].v
		p.free[n] = held[T]{}
		p.free = p.free[:n]
		p.mu.Unlock()
		return v
	}
	p.mu.Unlock()
	if p.New != nil {
		return p.New()
	}
	var zero T
	return zero
}

// Put returns v, whose owner is done with it.
func (p *Pool[T]) Put(v T) {
	p.mu.Lock()
	p.free = append(p.free, held[T]{v, p.epoch})
	if !p.armed {
		p.armed = true
		p.arm()
	}
	p.mu.Unlock()
}

// gcSentinel is what a pool watches the collector through: it holds a
// pointer, so it is not batched with other tiny objects and its finalizer
// runs after the first collection that finds it.
type gcSentinel struct{ _ *byte }

// arm has collected run after the next collection. Only a pool that
// holds something is armed, so an idle pool is reachable from no
// finalizer and goes with its owner.
func (p *Pool[T]) arm() { runtime.SetFinalizer(new(gcSentinel), func(*gcSentinel) { p.collected() }) }

// collected counts a collection and drops what was put two or more
// collections ago.
func (p *Pool[T]) collected() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.epoch++
	k := 0
	for k < len(p.free) && p.epoch-p.free[k].epoch >= 2 {
		k++
	}
	n := copy(p.free, p.free[k:])
	clear(p.free[n:])
	p.free = p.free[:n]
	if n == 0 {
		p.free, p.armed = nil, false
		return
	}
	p.arm()
}

// Classed pools slices in size classes a quarter of a power of two
// apart, so a pooled slice serves every request of its class with at
// most 25 % slack. A pool of as-needed lengths would keep handing a short
// slice to a long request, which then allocates anyway. Bytes serves the
// write path's images, frames and wire payloads, Ints its LOD orders.
type Classed[T any] struct {
	pools [numClasses]Pool[[]T]   // slices of capacity the class size
	owned [numClasses]atomic.Bool // the class has made a slice of its own
}

var (
	Bytes Classed[byte]
	Ints  Classed[int]
)

// classShift is the reach of the class table: its largest class is
// 1<<classShift elements, so a compressed file's frames (one arena a
// file) come from the pool up to a gigabyte of them. Sizes 1–4 are
// classes of their own; every octave above has four.
const (
	classShift = 30
	numClasses = 4 * (classShift - 1)
)

// sizeClass returns n's class and the class's size: n rounded up to a
// quarter of the power of two below it.
func sizeClass(n int) (int, int) {
	if n <= 4 {
		return n - 1, n
	}
	k := bits.Len(uint(n - 1)) // 1<<(k-1) < n <= 1<<k
	q := (n-1)>>(k-3) + 1      // 5..8 quarters of 1<<(k-1)
	return 4*k - 13 + q, q << (k - 3)
}

// classSize returns the size of class i: sizeClass's inverse.
func classSize(i int) int {
	if i < 4 {
		return i + 1
	}
	k := (i + 8) / 4
	return (i + 13 - 4*k) << (k - 3)
}

// Get returns a slice of length n: one of its own class, or else the
// smallest held slice of the next three classes up, as long as that is
// at most twice n (it is, for n past 2: four classes span an octave).
// A class borrows only once it has made a slice of its own: a class whose
// first requests all borrowed stays empty for good, and a later step that
// draws the lenders' slices first misses (a warm write of 2.9 MB ran into
// this in 3 of 48 runs of internal/core). Its contents are stale: the
// caller overwrites every element before reading one.
func (c *Classed[T]) Get(n int) []T {
	if n <= 0 {
		return nil
	}
	i, size := sizeClass(n)
	if i >= numClasses {
		return make([]T, n)
	}
	for j := i; j < min(i+4, numClasses) && classSize(j) <= 2*n && (j == i || c.owned[i].Load()); j++ {
		if s := c.pools[j].Get(); s != nil {
			return s[:n]
		}
	}
	c.owned[i].Store(true)
	return make([]T, n, size)
}

// Put pools s, whose owner is done with it. A slice whose capacity is
// not a class size — not one Get made — is left to the collector.
func (c *Classed[T]) Put(s []T) {
	if cap(s) == 0 {
		return
	}
	if i, size := sizeClass(cap(s)); i < numClasses && size == cap(s) {
		c.pools[i].Put(s[:0])
	}
}
