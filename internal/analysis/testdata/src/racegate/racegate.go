// Package racegate is the golden fixture for the consistent-lock race
// analyzer. True positives: a lock-free write in a spawned goroutine
// racing a locked read (direct and through a helper), a lock-free
// write under a spawn-in-a-loop origin racing its own instances, and a
// plain access to a field the rest of the code touches atomically.
// Deliberately clean shapes: all-atomic counters, writes kept under one
// mutex on every path (including via the caller's lock — the
// putLocked idiom), ownership/init-before-spawn, channel hand-off, and
// single-origin code. One deliberate pre-spawn configuration write is
// suppressed with //spio:allow.
package racegate

import (
	"sync"
	"sync/atomic"
)

// --- true positive: lock-free write in a spawned goroutine vs a
// locked read from the main goroutine ---

type Gauge struct {
	mu  sync.Mutex
	val int
}

func (g *Gauge) Watch() {
	go g.poll()
}

func (g *Gauge) poll() {
	for i := 0; i < 8; i++ {
		g.val++ // want "share no common lock"
	}
}

func (g *Gauge) Read() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.val
}

// --- true positive, interprocedural: the unlocked write hides inside a
// helper reached only from the spawned goroutine ---

type Journal struct {
	mu  sync.Mutex
	seq int
}

func (j *Journal) Append() {
	j.mu.Lock()
	j.seq++
	j.mu.Unlock()
}

func (j *Journal) Start() {
	go j.flusher()
}

func (j *Journal) flusher() {
	j.stamp()
}

func (j *Journal) stamp() {
	j.seq++ // want "share no common lock"
}

// --- true positive: spawn in a loop — the handler races its own
// concurrent instances; the locked map write right above stays clean ---

type Hub struct {
	mu    sync.Mutex
	conns map[string]int
	last  string
}

func (h *Hub) Serve() {
	for {
		go h.handle("conn")
	}
}

func (h *Hub) handle(name string) {
	h.mu.Lock()
	h.conns[name] = 1 // clean: every instance holds h.mu here
	h.mu.Unlock()
	h.last = name // want "concurrent instances"
}

// --- atomic/plain mix: the counter is atomic everywhere except one
// plain read ---

type Stats struct {
	hits atomic.Int64
	miss int64
	done chan struct{}
}

func (s *Stats) Record() {
	go func() {
		s.hits.Add(1)
		atomic.AddInt64(&s.miss, 1)
	}()
	s.hits.Add(2) // clean: atomic vs atomic never races
}

func (s *Stats) Dump() int64 {
	return s.hits.Load() + s.miss // want "both atomically and plainly"
}

// --- clean: the helper writes under the *caller's* lock on every call
// path (the putLocked idiom) ---

type Store struct {
	mu    sync.Mutex
	items map[string]int
}

func (s *Store) Put(k string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.putLocked(k)
}

func (s *Store) Drain() {
	go s.loop()
}

func (s *Store) loop() {
	s.mu.Lock()
	s.putLocked("drain")
	s.mu.Unlock()
}

func (s *Store) putLocked(k string) {
	s.items[k] = 1 // clean: every loaded call site holds s.mu
}

// --- clean: ownership / init-before-spawn and channel hand-off ---

type task struct {
	mu sync.Mutex
	n  int
}

func Produce(ch chan *task) {
	t := &task{}
	t.n = 1 // clean: t is still owned by this function
	ch <- t
}

func Consume(ch chan *task) {
	go func() {
		for t := range ch {
			t.n++ // clean: the channel send handed t off
		}
	}()
}

// --- clean: only the main goroutine ever reaches these ---

type Local struct {
	mu sync.Mutex
	n  int
}

func Bump(l *Local) {
	l.n++ // clean: single origin, nothing to race with
}

func BumpLocked(l *Local) {
	l.mu.Lock()
	l.n++
	l.mu.Unlock()
}

// --- suppressed: deliberate set-before-spawn configuration seam ---

type Worker struct {
	mu    sync.Mutex
	delay int
}

// SetDelay must be called before Start by contract; the field is
// read-only once the loop goroutine exists.
func (w *Worker) SetDelay(d int) {
	//spio:allow racegate -- delay is configured before Start spawns the loop and read-only after
	w.delay = d // want "share no common lock"
}

func (w *Worker) Start() {
	go w.run()
}

func (w *Worker) run() {
	for w.delay > 0 {
		return
	}
}

// --- true positive on a generic receiver: an unlocked write in a
// goroutine spawned through an instantiation, beside a locked one ---

type Cell[T any] struct {
	mu sync.Mutex
	v  T
	n  int
}

func (c *Cell[T]) Set(v T) {
	c.mu.Lock()
	c.v = v
	c.n++
	c.mu.Unlock()
}

func (c *Cell[T]) bump() {
	c.n++ // want "share no common lock"
}

func Spin(c *Cell[string]) {
	go c.bump()
	c.Set("x")
}
