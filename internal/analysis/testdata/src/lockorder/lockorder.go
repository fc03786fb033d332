// Fixture for the lockorder analyzer: the three static deadlock shapes
// — re-acquiring a held mutex (sync mutexes are not reentrant), holding
// a mutex across a blocking operation, and acquiring two lock classes
// in opposite orders on different paths — plus the sanctioned shapes
// (Cond.Wait mailbox, select with default) that must stay clean.
package lockorder

import (
	"net"
	"sync"
)

// counter exercises self-deadlock, directly and through a helper.
type counter struct {
	mu sync.Mutex
	n  int
}

// Incr is the public locked entry point.
func (c *counter) Incr() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// Get is the clean shape: acquire, read, release. No finding.
func (c *counter) Get() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// reset re-acquires c.mu while already holding it: the goroutine
// deadlocks on itself.
func (c *counter) reset() {
	c.mu.Lock()
	c.mu.Lock() // want "re-acquires lockorder.counter.mu already held"
	c.n = 0
	c.mu.Unlock()
	c.mu.Unlock()
}

// incrLocked hides the second acquisition behind a call: Incr's lock
// summary carries counter.mu up to this call site.
func (c *counter) incrLocked() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.Incr() // want "callee re-acquires it"
}

// mailbox exercises lock-held-across-blocking: a channel send parks the
// goroutine while every other acquirer of mu queues behind it.
type mailbox struct {
	mu sync.Mutex
	ch chan int
}

// post sends while holding mu: the consumer's pace decides how long
// every other poster waits.
func (m *mailbox) post(v int) {
	m.mu.Lock()
	m.ch <- v // want "holds lockorder.mailbox.mu .* across channel send"
	m.mu.Unlock()
}

// flush parks on the channel; with no lock held here it is clean on
// its own, but its summary says "may block on channel send".
func (m *mailbox) flush() {
	m.ch <- 0
}

// postAll blocks through the helper: the blocking operation is not
// visible in this body, only in flush's summary.
func (m *mailbox) postAll(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := 0; i < n; i++ {
		m.flush() // want "may block on channel send"
	}
}

// tryPost is the non-blocking variant: a select with a default clause
// never parks, so holding mu across it is fine. No finding.
func (m *mailbox) tryPost(v int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	select {
	case m.ch <- v:
		return true
	default:
		return false
	}
}

// registry and journal exercise the AB/BA inversion: the two functions
// below acquire the two classes in opposite orders, so one goroutine in
// each suffices to deadlock both.
type registry struct {
	mu    sync.Mutex
	names map[int]string
}

type journal struct {
	mu      sync.Mutex
	entries []string
}

func lookupThenLog(r *registry, j *journal, id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j.mu.Lock() // want "lock order inversion"
	defer j.mu.Unlock()
	j.entries = append(j.entries, r.names[id])
}

func logThenLookup(r *registry, j *journal, id int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	r.mu.Lock() // want "lock order inversion"
	defer r.mu.Unlock()
	j.entries = append(j.entries, r.names[id])
}

// gate is the sanctioned Cond.Wait mailbox: Wait releases mu while
// parked, so waiting under the lock is the idiom, not a finding.
type gate struct {
	mu    sync.Mutex
	cond  *sync.Cond
	ready bool
}

func (g *gate) await() {
	g.mu.Lock()
	for !g.ready {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

func (g *gate) open() {
	g.mu.Lock()
	g.ready = true
	g.mu.Unlock()
	g.cond.Broadcast()
}

// wire is the deliberate exception: the mutex dedicates the conn to one
// request/response exchange, so holding it across the socket I/O is the
// protocol — recorded with a //spio:allow and its reason.
type wire struct {
	mu   sync.Mutex
	conn net.Conn
}

func (w *wire) exchange(req []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	//spio:allow lockorder -- fixture: mu dedicates the conn to one exchange; holding it across the I/O is the protocol
	_, err := w.conn.Write(req) // want "across net.Conn.Write"
	return err
}

// Box is the generic-receiver case (internal/cache.Cache is the real
// one): its methods are declared once and called through instantiations,
// and its lock class is lockorder.Box.mu whatever T is.
type Box[T any] struct {
	mu   sync.Mutex
	v    T
	full chan struct{}
}

// Put parks on the channel under the lock, inside a generic method.
func (b *Box[T]) Put(v T) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.v = v
	b.full <- struct{}{} // want "holds lockorder.Box.mu .* across channel send"
}

// Wait is clean on its own; its summary says "may block".
func (b *Box[T]) Wait() {
	<-b.full
}

// fillUnder holds another class across a generic method that blocks: the
// summary must reach the caller through the instantiation Box[int].
func fillUnder(c *counter, b *Box[int]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b.Wait() // want "may block on channel receive"
}
