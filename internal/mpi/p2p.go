package mpi

import (
	"fmt"
	"sync"
)

// AnySource matches messages from any rank, like MPI_ANY_SOURCE.
const AnySource = -1

// AnyTag matches messages with any user tag, like MPI_ANY_TAG.
const AnyTag = -1

// Status describes a received message.
type Status struct {
	Source int
	Tag    int
}

type message struct {
	src, tag int
	data     []byte
}

// mailbox is an unbounded, mutex-protected queue with (source, tag)
// matching. Unboundedness makes sends asynchronous — the buffered-send
// semantics a well-provisioned MPI eager protocol gives small and
// mid-sized messages — which is what lets the paper's aggregation phase
// post all sends before any receive completes.
//
// Blocked receivers park on per-waiter condition variables and put
// delivers a matching message directly to the first matching waiter (in
// posting order). The earlier design had one shared cond that put
// Broadcast: with w waiters every delivery woke all of them, and each
// loser rescanned the whole queue before sleeping again — O(w·q) work
// per message once collectives pile up Irecv waiters. Direct handoff
// wakes exactly one goroutine per message and never rescans.
type mailbox struct {
	mu      sync.Mutex
	ab      *abortState
	queue   []message
	waiters []*waiter
}

// waiter is one blocked take: its match criteria and a private cond
// (sharing the mailbox mutex) that put signals on delivery.
type waiter struct {
	src   int
	match func(wireTag int) bool
	cond  *sync.Cond
	msg   message
	ready bool
}

func newMailbox(ab *abortState) *mailbox {
	return &mailbox{ab: ab}
}

func (m *mailbox) put(msg message) {
	m.mu.Lock()
	for _, w := range m.waiters {
		if !w.ready && (w.src == AnySource || msg.src == w.src) && w.match(msg.tag) {
			w.msg = msg
			w.ready = true
			w.cond.Signal()
			m.mu.Unlock()
			return
		}
	}
	m.queue = append(m.queue, msg)
	m.mu.Unlock()
}

// take blocks until a message matching the predicate arrives, removes
// the first match in arrival order, and returns it. When several takes
// with overlapping criteria block concurrently (Irecv), messages are
// handed out in the order the takes were posted.
func (m *mailbox) take(src int, match func(wireTag int) bool) message {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, msg := range m.queue {
		if (src == AnySource || msg.src == src) && match(msg.tag) {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			return msg
		}
	}
	m.ab.check()
	w := &waiter{src: src, match: match, cond: sync.NewCond(&m.mu)}
	m.waiters = append(m.waiters, w)
	defer func() {
		for i, x := range m.waiters {
			if x == w {
				m.waiters = append(m.waiters[:i], m.waiters[i+1:]...)
				break
			}
		}
	}()
	for !w.ready {
		w.cond.Wait()
		if !w.ready {
			// Spurious-looking wake: only wakeAll (world abort) does this.
			m.ab.check()
		}
	}
	return w.msg
}

// wakeAll wakes every parked waiter so it can observe a world abort.
func (m *mailbox) wakeAll() {
	m.mu.Lock()
	for _, w := range m.waiters {
		w.cond.Signal()
	}
	m.mu.Unlock()
}

// tagSpace is the per-namespace tag range: user tags must be below it,
// and a communicator namespace shifts its wire tags by ns·tagSpace so
// duplicated communicators (Dup) never match each other's traffic.
const tagSpace = 1 << 20

// Comm is one rank's handle onto the world, the analogue of an MPI
// communicator bound to a rank.
type Comm struct {
	world    *World
	rank     int
	collSeq  uint64 // per-rank collective sequence number, see coll.go
	ns       int    // tag namespace (0 for the world communicator)
	dupCount int    // children handed out by Dup
}

// Rank returns this rank's id.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// Dup returns a duplicate communicator with an isolated tag namespace —
// the analogue of MPI_Comm_dup. Traffic on the duplicate can never match
// receives on the parent (or any other duplicate), which is what lets a
// library operation such as an asynchronous checkpoint run concurrently
// with the caller's own communication. All ranks must call Dup in the
// same order on the same communicator (the usual SPMD contract) so the
// duplicates correspond.
func (c *Comm) Dup() *Comm {
	c.stampColl(collDup)
	c.dupCount++
	if c.dupCount >= 64 {
		panic("mpi: too many duplicates of one communicator")
	}
	ns := c.ns*64 + c.dupCount
	if ns >= 1<<20 {
		panic("mpi: communicator duplication too deep")
	}
	return &Comm{world: c.world, rank: c.rank, ns: ns}
}

// wireTag maps a user tag into this communicator's namespace.
func (c *Comm) wireTag(tag int) int {
	if tag < 0 || tag >= tagSpace {
		panic(fmt.Sprintf("mpi: user tag %d out of [0,%d)", tag, tagSpace))
	}
	return c.ns*tagSpace + tag
}

// matcher returns the wire-tag predicate for a Recv of the given user
// tag (or AnyTag, which matches only user messages of this namespace).
func (c *Comm) matcher(tag int) func(int) bool {
	if tag == AnyTag {
		lo, hi := c.ns*tagSpace, (c.ns+1)*tagSpace
		return func(wire int) bool { return wire >= lo && wire < hi }
	}
	want := c.wireTag(tag)
	return func(wire int) bool { return wire == want }
}

// Send delivers data to dst with the given user tag (tag >= 0). The data
// is copied, so the caller may immediately reuse its buffer; the send
// never blocks (eager buffered semantics).
func (c *Comm) Send(dst, tag int, data []byte) {
	c.send(dst, c.wireTag(tag), data)
}

func (c *Comm) send(dst, tag int, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	c.sendOwned(dst, tag, cp)
}

// SendOwned is Send for payloads the caller is done with: ownership of
// data transfers to the receiver and the slice is enqueued without the
// defensive copy Send makes. The caller must not read or write data
// afterwards — use it for freshly encoded payloads that exist only to be
// sent, where the copy would double the wire traffic's memory cost.
func (c *Comm) SendOwned(dst, tag int, data []byte) {
	c.sendOwned(dst, c.wireTag(tag), data)
}

func (c *Comm) sendOwned(dst, tag int, data []byte) {
	if dst < 0 || dst >= c.world.size {
		panic(fmt.Sprintf("mpi: send to invalid rank %d (world size %d)", dst, c.world.size))
	}
	if fn := c.world.sendDelay; fn != nil {
		fn(c.rank, dst, len(data))
	}
	c.world.msgCount.Add(1)
	c.world.byteCount.Add(int64(len(data)))
	c.world.mailboxes[dst].put(message{src: c.rank, tag: tag, data: data})
}

// Recv blocks until a message from src (or AnySource) with tag (or
// AnyTag, which matches any user tag on this communicator) arrives and
// returns its payload and status.
func (c *Comm) Recv(src, tag int) ([]byte, Status) {
	if src != AnySource && (src < 0 || src >= c.world.size) {
		panic(fmt.Sprintf("mpi: recv from invalid rank %d (world size %d)", src, c.world.size))
	}
	msg := c.world.mailboxes[c.rank].take(src, c.matcher(tag))
	return msg.data, Status{Source: msg.src, Tag: msg.tag - c.ns*tagSpace}
}

// recvWire receives a message with an exact wire tag (used by the
// collectives, whose tags are already namespaced).
func (c *Comm) recvWire(src, wire int) []byte {
	msg := c.world.mailboxes[c.rank].take(src, func(t int) bool { return t == wire })
	return msg.data
}

// Request is a handle to a non-blocking operation, the analogue of
// MPI_Request.
type Request struct {
	done   chan struct{}
	data   []byte
	status Status
}

// Wait blocks until the operation completes and returns the received
// payload (nil for sends) and status.
func (r *Request) Wait() ([]byte, Status) {
	<-r.done
	return r.data, r.status
}

// Isend posts a non-blocking send. Because sends are eager and buffered,
// the returned request is already complete; it exists so call sites can
// mirror the paper's Isend/Irecv structure.
func (c *Comm) Isend(dst, tag int, data []byte) *Request {
	c.send(dst, c.wireTag(tag), data)
	r := &Request{done: make(chan struct{})}
	close(r.done)
	return r
}

// Irecv posts a non-blocking receive that matches like Recv. The match
// is performed by a background goroutine; Wait returns its result.
func (c *Comm) Irecv(src, tag int) *Request {
	r := &Request{done: make(chan struct{})}
	go func() {
		r.data, r.status = c.Recv(src, tag)
		close(r.done)
	}()
	return r
}

// SendRecv performs a combined send to dst and receive from src with the
// same tag, without deadlock regardless of ordering.
func (c *Comm) SendRecv(dst, src, tag int, data []byte) ([]byte, Status) {
	c.send(dst, c.wireTag(tag), data)
	return c.Recv(src, tag)
}

// Probe reports whether a message matching (src, tag) is currently
// queued, without receiving it.
func (c *Comm) Probe(src, tag int) bool {
	match := c.matcher(tag)
	m := c.world.mailboxes[c.rank]
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, msg := range m.queue {
		if (src == AnySource || msg.src == src) && match(msg.tag) {
			return true
		}
	}
	return false
}
