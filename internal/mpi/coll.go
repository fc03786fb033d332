package mpi

import (
	"encoding/binary"
	"fmt"
)

// Collectives are built from point-to-point messages. Every rank must
// call the same collectives in the same order (the usual SPMD contract);
// matching is done with a per-rank collective sequence number carried in
// negative tags, which never collide with user tags (>= 0). A rank must
// not have a Recv(AnyTag) outstanding across a collective.

// nextCollTag returns the internal wire tag for this rank's next
// collective operation. All ranks call collectives in the same order, so
// their sequence numbers — and therefore tags — agree. Collective tags
// are negative (disjoint from every user namespace) and carry the
// communicator namespace, the sequence number, and the operation kind:
// stamping the kind into the tag means a mismatched collective's traffic
// can never be mistaken for the right operation's, and registering it
// with the guard (stampColl) turns the mismatch into an immediate named
// panic instead of a deadlock.
func (c *Comm) nextCollTag(kind collKind) int {
	c.stampColl(kind)
	// < 0 always; AnyTag (-1) unused because seq starts at 1.
	return -((c.ns*tagSpace+int(c.collSeq))*collKindSpace + int(kind)) - 1
}

// Barrier blocks until every rank has entered it (on this
// communicator's namespace — duplicated communicators have independent
// barriers).
func (c *Comm) Barrier() {
	c.stampColl(collBarrier) // keep sequence numbers aligned across collective kinds
	c.world.barrierFor(c.ns).await()
}

// Bcast distributes root's data to every rank over a binomial tree and
// returns it. Non-root ranks pass nil (their argument is ignored). On the
// root the returned slice aliases the input.
func (c *Comm) Bcast(root int, data []byte) []byte {
	tag := c.nextCollTag(collBcast)
	n := c.world.size
	vrank := (c.rank - root + n) % n
	// Receive phase: a non-root rank receives from the parent at its
	// lowest set bit; the root falls through with mask = 2^ceil(log2 n).
	mask := 1
	for mask < n {
		if vrank&mask != 0 {
			src := (vrank - mask + root) % n
			data = c.recvWire(src, tag)
			break
		}
		mask <<= 1
	}
	// Forward phase: relay to children at decreasing bit positions.
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vrank+mask < n {
			dst := (vrank + mask + root) % n
			c.send(dst, tag, data)
		}
	}
	return data
}

// Gather collects each rank's data at root. On root, the returned slice
// has one entry per rank (in rank order); on other ranks it is nil.
func (c *Comm) Gather(root int, data []byte) [][]byte {
	tag := c.nextCollTag(collGather)
	if c.rank != root {
		c.send(root, tag, data)
		return nil
	}
	out := make([][]byte, c.world.size)
	cp := make([]byte, len(data))
	copy(cp, data)
	out[root] = cp
	for i := 0; i < c.world.size; i++ {
		if i == root {
			continue
		}
		out[i] = c.recvWire(i, tag)
	}
	return out
}

// Allgather collects every rank's data on every rank, implemented as a
// Gather to rank 0 followed by a Bcast — the same two-step structure the
// paper uses for the metadata file (Section 3.5).
func (c *Comm) Allgather(data []byte) [][]byte {
	c.stampColl(collAllgather)
	parts := c.Gather(0, data)
	var packed []byte
	if c.rank == 0 {
		packed = packSlices(parts)
	}
	packed = c.Bcast(0, packed)
	out, err := unpackSlices(packed)
	if err != nil {
		panic(fmt.Sprintf("mpi: corrupt allgather payload: %v", err))
	}
	return out
}

// Alltoall sends bufs[i] to rank i and returns the n payloads received,
// indexed by source rank. bufs must have world-size entries. Payloads may
// be empty and of different lengths (the MPI_Alltoallv case).
func (c *Comm) Alltoall(bufs [][]byte) [][]byte {
	if len(bufs) != c.world.size {
		panic(fmt.Sprintf("mpi: Alltoall needs %d buffers, got %d", c.world.size, len(bufs)))
	}
	tag := c.nextCollTag(collAlltoall)
	for dst, b := range bufs {
		if dst == c.rank {
			continue
		}
		c.send(dst, tag, b)
	}
	out := make([][]byte, c.world.size)
	cp := make([]byte, len(bufs[c.rank]))
	copy(cp, bufs[c.rank])
	out[c.rank] = cp
	for i := 0; i < c.world.size; i++ {
		if i == c.rank {
			continue
		}
		out[i] = c.recvWire(i, tag)
	}
	return out
}

// ReduceOp is a reduction operator for Reduce/Allreduce.
type ReduceOp int

// Reduction operators.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

func (op ReduceOp) combineI64(a, b int64) int64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	}
	panic(fmt.Sprintf("mpi: unknown reduce op %d", op))
}

// Reduce combines every rank's value at root. Non-root ranks get 0.
func (c *Comm) Reduce(root int, value int64, op ReduceOp) int64 {
	c.stampColl(collReduce)
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, uint64(value))
	parts := c.Gather(root, buf)
	if c.rank != root {
		return 0
	}
	acc := value
	for i, p := range parts {
		if i == root {
			continue
		}
		acc = op.combineI64(acc, int64(binary.LittleEndian.Uint64(p)))
	}
	return acc
}

// Allreduce combines every rank's value and returns the result on all
// ranks.
func (c *Comm) Allreduce(value int64, op ReduceOp) int64 {
	c.stampColl(collAllreduce)
	res := c.Reduce(0, value, op)
	buf := make([]byte, 8)
	if c.rank == 0 {
		binary.LittleEndian.PutUint64(buf, uint64(res))
	}
	buf = c.Bcast(0, buf)
	return int64(binary.LittleEndian.Uint64(buf))
}

// packSlices encodes a list of byte slices with uvarint length prefixes.
func packSlices(parts [][]byte) []byte {
	var out []byte
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(parts)))
	out = append(out, tmp[:n]...)
	for _, p := range parts {
		n = binary.PutUvarint(tmp[:], uint64(len(p)))
		out = append(out, tmp[:n]...)
		out = append(out, p...)
	}
	return out
}

// unpackSlices inverts packSlices.
func unpackSlices(data []byte) ([][]byte, error) {
	count, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, fmt.Errorf("bad slice count")
	}
	data = data[k:]
	out := make([][]byte, count)
	for i := range out {
		l, k := binary.Uvarint(data)
		if k <= 0 {
			return nil, fmt.Errorf("bad length prefix at slice %d", i)
		}
		data = data[k:]
		if uint64(len(data)) < l {
			return nil, fmt.Errorf("short payload at slice %d", i)
		}
		out[i] = data[:l:l]
		data = data[l:]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(data))
	}
	return out, nil
}
