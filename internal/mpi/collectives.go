package mpi

// This file is the single source of truth for which *Comm methods are
// collective. The runtime mismatch guard (guard.go) and the static
// analyzer (internal/analysis, surfaced as cmd/spiolint) both read this
// table, so the linter's idea of "collective" can never drift from the
// runtime's.

// collKind identifies a collective operation kind. Primitive kinds are
// stamped into collective wire tags and into the world's collective
// ledger; composite kinds are implemented in terms of primitives and
// inherit their stamps.
type collKind uint8

// Collective operation kinds. The zero value is reserved so a missing
// stamp is distinguishable from Barrier.
const (
	collNone collKind = iota
	collBarrier
	collBcast
	collGather
	collAllgather
	collAlltoall
	collReduce
	collAllreduce
	collDup
	collKindLimit // one past the last kind; must stay <= collKindSpace
)

// collKindSpace is the number of kind slots encodable in a collective
// wire tag (see nextCollTag).
const collKindSpace = 16

// collectiveSpec describes one collective method of *Comm.
type collectiveSpec struct {
	name string
	kind collKind
	// primitive collectives move bytes themselves and stamp their kind
	// into wire tags and the ledger; composite ones delegate to
	// primitives.
	primitive bool
}

// collectives lists every collective method of *Comm, in declaration
// order. Every rank of a communicator must call these methods in the
// same order (the SPMD contract); guard.go enforces the kind part of
// that contract at runtime, and the collorder analyzer enforces the
// control-flow part statically.
var collectives = []collectiveSpec{
	{"Barrier", collBarrier, true},
	{"Bcast", collBcast, true},
	{"Gather", collGather, true},
	{"Allgather", collAllgather, false},
	{"Alltoall", collAlltoall, true},
	{"Reduce", collReduce, false},
	{"Allreduce", collAllreduce, false},
	{"Dup", collDup, false},
}

func (k collKind) String() string {
	for _, spec := range collectives {
		if spec.kind == k {
			return spec.name
		}
	}
	return "unknown-collective"
}

// CollectiveMethods returns the names of every collective method of
// *Comm, in declaration order. It is the machine-readable contract
// consumed by the collorder static analyzer: a call to any of these must
// be issued by every rank of the communicator in the same order.
func CollectiveMethods() []string {
	out := make([]string, len(collectives))
	for i, spec := range collectives {
		out[i] = spec.name
	}
	return out
}

// UserTagSpace is the exclusive upper bound of the user point-to-point
// tag space: user tags must lie in [0, UserTagSpace). Everything outside
// — all negative wire tags — is the reserved collective tag namespace
// (see coll.go), which user code must never send on. The tagclash
// analyzer enforces this statically; wireTag enforces it at runtime.
const UserTagSpace = tagSpace
