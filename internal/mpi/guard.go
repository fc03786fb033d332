package mpi

import (
	"fmt"
	"sync"
)

// Runtime collective-mismatch guard. The SPMD contract says every rank
// of a communicator calls the same collectives in the same order; a
// program that breaks it (say rank 0 enters Barrier while rank 3 enters
// Bcast) would otherwise deadlock silently, because mismatched
// collectives simply wait for messages that never come. Instead, every
// collective stamps its operation kind into the world's collective
// ledger (and into its wire tags, see nextCollTag): the first rank to
// arrive at sequence number s records what collective s is; any rank
// arriving at s with a different kind proves the mismatch, panics with
// both kinds by name, and aborts the world so the ranks blocked inside
// the orphaned collective fail fast instead of hanging.
//
// The guard catches kind mismatches at the same sequence position. A
// rank that skips a collective entirely desynchronizes its sequence
// numbers, which the ledger usually exposes at the *next* collective
// (the kinds at that position then disagree); a skip followed by
// nothing — or by an identical collective sequence — still deadlocks:
// every multi-rank test runs under a timeout, which turns that hang into
// a failure.

// collKey addresses one collective operation: its communicator
// namespace and per-rank sequence number.
type collKey struct {
	ns  int
	seq uint64
}

// collEntry records what the first arrivals at a collective position
// claimed it to be.
type collEntry struct {
	kind collKind
	rank int // first rank to arrive
	n    int // ranks arrived so far
}

// abortState is the world-wide kill switch collective mismatches pull.
type abortState struct {
	mu  sync.Mutex
	msg string
}

func (a *abortState) set(msg string) {
	a.mu.Lock()
	if a.msg == "" {
		a.msg = msg
	}
	a.mu.Unlock()
}

func (a *abortState) message() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.msg
}

// checkAborted panics if the world has been aborted. It is called at
// every blocking point (mailbox receive, barrier) so that ranks parked
// inside an orphaned collective unwind promptly after a mismatch
// elsewhere.
func (a *abortState) check() {
	if msg := a.message(); msg != "" {
		panic("mpi: world aborted: " + msg)
	}
}

// stampCollective registers that rank entered collective kind at
// sequence seq on communicator namespace ns, and panics — aborting the
// whole world — if another rank already entered a different collective
// at that position.
func (w *World) stampCollective(ns int, seq uint64, kind collKind, rank int) {
	key := collKey{ns: ns, seq: seq}
	w.collMu.Lock()
	e, ok := w.collLedger[key]
	if !ok {
		w.collLedger[key] = &collEntry{kind: kind, rank: rank, n: 1}
		w.collMu.Unlock()
		return
	}
	if e.kind != kind {
		first := *e
		w.collMu.Unlock()
		msg := fmt.Sprintf("mpi: rank %d entered %s while rank %d entered %s (collective #%d, communicator namespace %d)",
			rank, kind, first.rank, first.kind, seq, ns)
		w.abort(msg)
		panic(msg)
	}
	e.n++
	if e.n == w.size {
		// Every rank agreed on this position; forget it so the ledger
		// stays bounded by the world's collective skew, not its history.
		delete(w.collLedger, key)
	}
	w.collMu.Unlock()
}

// abort records the fatal message and wakes every blocked rank so it
// can observe the abort and panic instead of waiting forever.
func (w *World) abort(msg string) {
	w.ab.set(msg)
	for _, m := range w.mailboxes {
		m.wakeAll()
	}
	w.barrierMu.Lock()
	bs := make([]*barrier, 0, len(w.barriers))
	for _, b := range w.barriers {
		bs = append(bs, b)
	}
	w.barrierMu.Unlock()
	for _, b := range bs {
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	}
}

// stampColl advances this rank's collective sequence number and
// registers the collective's kind with the guard. Every collective
// method calls it exactly once on entry; the primitive collectives
// additionally fold the kind into their wire tags via nextCollTag.
func (c *Comm) stampColl(kind collKind) {
	c.collSeq++
	if c.collSeq >= tagSpace {
		panic("mpi: collective sequence space exhausted")
	}
	c.world.stampCollective(c.ns, c.collSeq, kind, c.rank)
}
