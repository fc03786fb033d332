// Fixture for the collorder analyzer: rank-guarded collectives are
// flagged; rank-balanced shapes — including the rank-0-writes-metadata
// pattern internal/core uses — are not.
package collorder

import "spio/internal/mpi"

// A collective issued only by rank 0: the other ranks never enter it.
func rankGuardedBarrier(c *mpi.Comm) {
	if c.Rank() == 0 {
		c.Barrier() // want "issued by only some ranks"
	}
}

// Rank-dependence tracked through locals: me derives from Rank.
func rankDerivedVar(c *mpi.Comm) {
	r := c.Rank()
	me := r % 2
	if me == 0 {
		c.Bcast(0, nil) // want "issued by only some ranks"
	}
}

// A rank-guarded early return skips the Allreduce on non-zero ranks.
func earlyReturnSkips(c *mpi.Comm) int64 {
	if c.Rank() != 0 {
		return 0
	}
	return c.Allreduce(1, mpi.OpSum) // want "skipped by ranks that leave early"
}

// A rank-dependent loop bound repeats the collective a different number
// of times per rank.
func rankBoundLoop(c *mpi.Comm) {
	for i := 0; i < c.Rank(); i++ {
		c.Barrier() // want "repeats under"
	}
}

// Balanced branches: every rank issues the same collective sequence, so
// the guard is fine (the root/non-root Bcast shape).
func balancedBranches(c *mpi.Comm, payload []byte) []byte {
	if c.Rank() == 0 {
		return c.Bcast(0, payload)
	}
	return c.Bcast(0, nil)
}

// The rank-0-writes-metadata pattern used by internal/core: the
// collective runs on every rank first, the rank guard only gates
// rank-local file work afterwards. No finding.
func rank0Metadata(c *mpi.Comm, payload []byte) [][]byte {
	gathered := c.Allgather(payload)
	if c.Rank() != 0 {
		return nil
	}
	return gathered
}

// A rank-uniform condition (same on all ranks) may guard collectives.
func uniformGuard(c *mpi.Comm, everyone bool) {
	if everyone {
		c.Barrier()
	}
}

// syncAndCount hides a collective one call deep: its summary is the
// inlined sequence [Barrier Allreduce].
func syncAndCount(c *mpi.Comm, n int64) int64 {
	c.Barrier()
	return c.Allreduce(n, mpi.OpSum)
}

// Interprocedural: the rank guard is on the helper call, not on any
// visible Comm method. The diagnostic names the helper's collective
// sequence and the call path to the blocking collective.
func rankGuardedHelper(c *mpi.Comm) {
	if c.Rank() == 0 {
		syncAndCount(c, 1) // want "call path: collorder.syncAndCount → Comm.Barrier"
	}
}

// The same helper on both arms balances exactly like a direct
// collective would: the inlined signatures compare equal. No finding.
func balancedHelper(c *mpi.Comm) int64 {
	if c.Rank() == 0 {
		return syncAndCount(c, 1)
	}
	return syncAndCount(c, 0)
}

// Two levels deep: outer wraps syncAndCount, and the early return skips
// it on non-zero ranks.
func deepHelper(c *mpi.Comm) int64 {
	return syncAndCount(c, 2)
}

func earlyReturnSkipsHelper(c *mpi.Comm) int64 {
	if c.Rank() != 0 {
		return 0
	}
	return deepHelper(c) // want "call path: collorder.deepHelper → collorder.syncAndCount → Comm.Barrier"
}
