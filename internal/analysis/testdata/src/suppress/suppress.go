// Fixture for //spio:allow suppression directives (directive.go):
// a well-formed directive marks the covered finding Suppressed, a
// directive without a reason or naming an unknown analyzer is itself a
// finding, and a directive that suppresses nothing is stale.
package suppress

import "spio/internal/mpi"

// Suppressed: the directive on the line above covers the finding.
func suppressedBarrier(c *mpi.Comm) {
	if c.Rank() == 0 {
		//spio:allow collorder -- demo: deliberate rank-0 barrier
		c.Barrier()
	}
}

// The same shape without a directive stays a live finding.
func unsuppressedBarrier(c *mpi.Comm) {
	if c.Rank() == 0 {
		c.Barrier()
	}
}

// A directive without a reason suppresses nothing and is reported; the
// barrier stays a live finding too.
func missingReason(c *mpi.Comm) {
	if c.Rank() == 0 {
		//spio:allow collorder
		c.Barrier()
	}
}

// A typo'd analyzer name must not silently stop suppressing.
func unknownAnalyzer(c *mpi.Comm) {
	if c.Rank() == 0 {
		//spio:allow collorderr -- typo
		c.Barrier()
	}
}

// A stale allow: nothing on this or the next line trips errdrop.
//
//spio:allow errdrop -- stale: the hazard is long gone
func nothingHere() {}
