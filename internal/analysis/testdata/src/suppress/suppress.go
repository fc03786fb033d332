// Fixture for //spio:allow suppression directives (directive.go):
// a well-formed directive marks the covered finding Suppressed, a
// directive without a reason or naming an unknown analyzer is itself a
// finding, and a directive that suppresses nothing is stale.
package suppress

import "sync"

// mailbox's methods each send on ch while holding mu: one lockorder
// finding apiece.
type mailbox struct {
	mu sync.Mutex
	ch chan int
}

// Suppressed: the directive on the line above covers the finding.
func (m *mailbox) suppressedSend() {
	m.mu.Lock()
	defer m.mu.Unlock()
	//spio:allow lockorder -- demo: deliberately held across the send
	m.ch <- 1
}

// The same shape without a directive stays a live finding.
func (m *mailbox) unsuppressedSend() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ch <- 2
}

// A directive without a reason suppresses nothing and is reported; the
// send stays a live finding too.
func (m *mailbox) missingReason() {
	m.mu.Lock()
	defer m.mu.Unlock()
	//spio:allow lockorder
	m.ch <- 3
}

// A typo'd analyzer name must not silently stop suppressing.
func (m *mailbox) unknownAnalyzer() {
	m.mu.Lock()
	defer m.mu.Unlock()
	//spio:allow lockordr -- typo
	m.ch <- 4
}

// A stale allow: nothing on this or the next line trips lockorder.
//
//spio:allow lockorder -- stale: the hazard is long gone
func nothingHere() {}
