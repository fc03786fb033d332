package mpi

import (
	"fmt"
	"time"
)

// Diagnostics beyond the core collectives.

// ErrTimeout reports that RunTimeout's deadline passed before every
// rank returned — almost always a communication deadlock (mismatched
// sends/receives or a rank that skipped a collective).
type ErrTimeout struct {
	Timeout time.Duration
}

func (e *ErrTimeout) Error() string {
	return fmt.Sprintf("mpi: world did not complete within %v (deadlocked ranks?)", e.Timeout)
}

// RunTimeout is Run with a watchdog: if the ranks do not all finish
// within timeout it returns *ErrTimeout. The stuck rank goroutines are
// abandoned (they hold no OS resources beyond their stacks), so this is
// a diagnostic for tests and tools, not a recovery mechanism.
func (w *World) RunTimeout(timeout time.Duration, fn func(c *Comm) error) error {
	done := make(chan error, 1)
	go func() { done <- w.Run(fn) }()
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		return &ErrTimeout{Timeout: timeout}
	}
}
