package agg

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"spio/internal/geom"
	"spio/internal/mpi"
	"spio/internal/particle"
)

// wirePool recycles encoded record payloads across exchanges. A payload
// is written once by its sender's encode, read once by the receiver's
// decode, and is then dead — without recycling every write allocates
// (and the runtime zero-fills) megabytes of one-shot wire buffers. The
// sender draws from the pool before encoding; the receiver returns every
// payload once its decode pool has drained. sync.Pool supplies the
// happens-before edge between a Put on one rank's goroutine and a Get on
// another's.
var wirePool sync.Pool // *[]byte

// getWire returns an n-byte slice that may hold stale payload bytes;
// callers must overwrite all of it (EncodeRecordsInto fills every byte).
func getWire(n int) []byte {
	if v, _ := wirePool.Get().(*[]byte); v != nil && cap(*v) >= n {
		return (*v)[:n]
	}
	return make([]byte, n)
}

func putWire(b []byte) {
	wirePool.Put(&b)
}

// Message tags for the two exchange phases (Section 3.3).
const (
	tagMetaCount = 1 // metadata exchange: particle counts
	tagData      = 2 // particle exchange: encoded records
)

// Timing records how long each write phase took on this rank; the
// aggregation-vs-file-I/O breakdown is what Fig. 6 reports.
type Timing struct {
	MetadataExchange time.Duration
	ParticleExchange time.Duration
	Reorder          time.Duration
	FileIO           time.Duration
	MetaIO           time.Duration
	// Abort is the time spent in the error-agreement rounds and abort
	// cleanup when a write fails; zero on the success path.
	Abort time.Duration
	// ExchangeBytes counts the particle payload bytes this rank received
	// over the wire during the data phase (self-sends are in-memory
	// copies and are not counted).
	ExchangeBytes int64
	// DecodeConcurrency is the peak number of payloads this rank decoded
	// simultaneously during the data phase — the observability hook for
	// the arrival-order overlap (0 on non-aggregators, 1 when every
	// payload decoded serially).
	DecodeConcurrency int
}

// Aggregation returns the total time spent moving data over the network
// (the "Data aggregation" bar of Fig. 6).
func (t Timing) Aggregation() time.Duration {
	return t.MetadataExchange + t.ParticleExchange
}

// Total returns the end-to-end write time on this rank.
func (t Timing) Total() time.Duration {
	return t.Aggregation() + t.Reorder + t.FileIO + t.MetaIO + t.Abort
}

// send is one outgoing bundle: a buffer destined for one aggregator.
type send struct {
	to  int
	buf *particle.Buffer
}

// exchange runs the paper's two-phase protocol from one rank's
// perspective:
//
//  1. Metadata exchange — each sender tells each of its aggregators how
//     many particles to expect (the aggregators "do not know a-priori
//     how many data packets to expect, nor how big a buffer to
//     allocate").
//  2. Buffer allocation sized once from the received counts, with each
//     sender's region offset fixed by the globally known sender order.
//  3. Particle exchange — non-blocking point-to-point sends of the
//     encoded records, received with AnySource in arrival order and
//     decoded concurrently into the disjoint pre-assigned regions.
//
// Because placement is by offset, not arrival, the aggregated buffer is
// byte-identical to rank-order assembly: a slow sender delays only its
// own region's decode, never the decodes behind it (the paper's
// non-blocking consumption, Section 3.3). The data phase's AnySource
// matching does mean consecutive exchanges on the same communicator must
// be separated by a collective (or run on Dup'd communicators) so one
// exchange cannot consume the next one's payloads; every caller in
// internal/core satisfies this via the error-agreement rounds.
//
// sends lists this rank's outgoing bundles (self-sends are delivered
// in-memory). expectFrom lists, for an aggregator rank, the ranks it must
// hear a count from; isAgg says whether this rank is an aggregator (an
// aggregator's sender set may legitimately be empty). Returns the
// aggregated buffer (empty but non-nil for aggregators with nothing to
// receive, nil for non-aggregators) and the phase timings.
//
// Content errors (malformed counts, short payloads, decode failures) do
// not abort the protocol mid-flight: the rank keeps posting every send
// and receive its peers count on, records the first error, and reports
// it only after the exchange is drained. An early return here would
// leave peers blocked in Recv — error agreement happens collectively in
// the caller (internal/core), which requires every rank to reach it.
func exchange(c *mpi.Comm, schema *particle.Schema, sends []send, expectFrom []int, isAgg bool) (*particle.Buffer, Timing, error) {
	var tm Timing
	var firstErr error
	note := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}

	// Phase 1: metadata exchange.
	start := time.Now()
	var selfBuf *particle.Buffer
	for _, s := range sends {
		if s.to == c.Rank() {
			selfBuf = s.buf
			continue
		}
		var cnt [8]byte
		binary.LittleEndian.PutUint64(cnt[:], uint64(s.buf.Len()))
		c.Isend(s.to, tagMetaCount, cnt[:])
	}
	counts := make(map[int]int64, len(expectFrom))
	total := int64(0)
	for _, src := range expectFrom {
		if src == c.Rank() {
			if selfBuf != nil {
				counts[src] = int64(selfBuf.Len())
				total += int64(selfBuf.Len())
			}
			continue
		}
		data, _ := c.Recv(src, tagMetaCount)
		if len(data) != 8 {
			// Treat the count as zero so no data receive is posted for
			// src; if src nevertheless sends a data message it stays
			// queued and is discarded with the communicator (see DESIGN
			// §9 on stray messages after a content error).
			note(fmt.Errorf("agg: malformed count message from rank %d (%d bytes)", src, len(data)))
			counts[src] = 0
			continue
		}
		n := int64(binary.LittleEndian.Uint64(data))
		counts[src] = n
		total += n
	}
	tm.MetadataExchange = time.Since(start)

	// Phase 2: size the aggregation buffer once from the counts and fix
	// each source's region offset by its position in expectFrom — the
	// sender order every rank derives from globally known geometry.
	// Placement is thereby independent of arrival order. Aggregators
	// always get a buffer, even when every sender announced zero
	// particles — callers index into it unconditionally.
	start = time.Now()
	var agg *particle.Buffer
	offsets := make(map[int]int64, len(expectFrom))
	pending := 0
	{
		off := int64(0)
		for _, src := range expectFrom {
			offsets[src] = off
			off += counts[src] // missing key (self with no selfBuf) reads 0
			if src != c.Rank() && counts[src] > 0 {
				pending++
			}
		}
	}
	if isAgg {
		// Recycled, stale-valued columns on purpose: on the success path
		// every particle of the buffer is overwritten before anything reads
		// it (the self region by CopyFrom, every other announced region by
		// its payload's decode), and on a content error the collective
		// agreement in the caller aborts the write before the buffer is
		// consumed — so paying for zeroed pages here would be pure waste.
		agg = particle.NewBufferOverwrite(schema, int(total))
	}

	// Phase 3: particle exchange. Sends are posted first (eager,
	// non-blocking); the self bundle is an in-memory copy into its region.
	// Each payload is encoded into a pooled slice whose ownership moves to
	// the receiver (SendOwned), so the wire bytes are written exactly once
	// — encoding into a rank-local scratch would force the transport to
	// copy the payload again. The receiver recycles the slice after its
	// decode pool drains.
	for _, s := range sends {
		if s.to == c.Rank() || s.buf.Len() == 0 {
			continue
		}
		payload := getWire(s.buf.Len() * schema.Stride())
		s.buf.EncodeRecordsInto(payload, 0, s.buf.Len())
		c.SendOwned(s.to, tagData, payload)
	}
	if selfBuf != nil && agg != nil {
		agg.CopyFrom(int(offsets[c.Rank()]), selfBuf)
	}

	// Receive in arrival order: AnySource, first payload in wins. Each
	// payload goes to a bounded worker pool decoding into its sender's
	// pre-assigned region; regions are disjoint, so decodes overlap both
	// each other and the remaining receives. agg is off-limits from the
	// first Go until Wait returns (the bufhandoff contract).
	if pending > 0 {
		pool := particle.NewDecodePool(agg, 0)
		got := make(map[int]bool, pending)
		// Every received payload goes back to the wire pool, but only
		// after pool.Wait: until then the decode workers are reading them.
		wires := make([][]byte, 0, pending)
		for i := 0; i < pending; i++ {
			data, st := c.Recv(mpi.AnySource, tagData)
			wires = append(wires, data)
			src := st.Source
			n, expected := counts[src]
			switch {
			case !expected || src == c.Rank() || n == 0:
				// A payload nobody announced. Drop it and keep the
				// receive posted — the announced payloads are still in
				// flight and peers count on us consuming them.
				note(fmt.Errorf("agg: unexpected data message from rank %d (%d bytes)", src, len(data)))
				i--
				continue
			case got[src]:
				note(fmt.Errorf("agg: duplicate data message from rank %d", src))
				i--
				continue
			}
			got[src] = true
			if want := n * int64(schema.Stride()); int64(len(data)) != want {
				note(fmt.Errorf("agg: rank %d announced %d particles but sent %d bytes (want %d)",
					src, n, len(data), want))
				continue
			}
			tm.ExchangeBytes += int64(len(data))
			pool.Go(data, int(offsets[src]))
		}
		if err := pool.Wait(); err != nil {
			note(err)
		}
		tm.DecodeConcurrency = pool.PeakConcurrency()
		for _, w := range wires {
			putWire(w)
		}
	}
	tm.ParticleExchange = time.Since(start)
	return agg, tm, firstErr
}

// ExchangeAligned runs the two-phase exchange for an aligned
// aggregation-grid: every rank's patch lies in exactly one partition, so
// each rank sends its whole buffer to one aggregator with no per-particle
// scan (Section 3.3, "each process can simply send all of its particles
// to the process which owns the partition").
//
// Aggregator ranks return their partition's aggregated buffer; other
// ranks return nil.
func ExchangeAligned(c *mpi.Comm, l *Layout, local *particle.Buffer) (*particle.Buffer, Timing, error) {
	if l.NumRanks != c.Size() {
		return nil, Timing{}, fmt.Errorf("agg: layout built for %d ranks, world has %d", l.NumRanks, c.Size())
	}
	sends := []send{{to: l.AggregatorOfRank(c.Rank()), buf: local}}
	var expectFrom []int
	part, isAgg := l.IsAggregator(c.Rank())
	if isAgg {
		expectFrom = l.RanksInPartition(part)
	}
	return exchange(c, local.Schema(), sends, expectFrom, isAgg)
}

// ExchangeScan runs the two-phase exchange for a non-aligned grid: each
// rank scans its particles to bin them by aggregation partition and may
// send to several aggregators. senderSets[p] must list the ranks that
// will send a count to partition p's aggregator; every rank must compute
// identical senderSets (they are derived from globally known geometry).
func ExchangeScan(c *mpi.Comm, grid geom.Grid, aggregators []int, senderSets [][]int, local *particle.Buffer) (*particle.Buffer, Timing, error) {
	split := SplitByPartition(local, grid)

	// Which partitions am I on record as sending to?
	mine := make(map[int]bool)
	for p, senders := range senderSets {
		for _, r := range senders {
			if r == c.Rank() {
				mine[p] = true
			}
		}
	}
	// Sanity: every non-empty bin must be covered by a sender-set entry,
	// otherwise the aggregator would never post a receive for us. The
	// violation is recorded, not returned early: this rank still runs the
	// full exchange (dropping the uncovered particles, which no peer is
	// expecting anyway) so its peers' sends and receives all complete,
	// and the caller's collective error agreement surfaces the failure on
	// every rank.
	var sanityErr error
	for p, buf := range split {
		if buf != nil && buf.Len() > 0 && !mine[p] && sanityErr == nil {
			sanityErr = fmt.Errorf("agg: rank %d holds %d particles for partition %d but is not in its sender set",
				c.Rank(), buf.Len(), p)
		}
	}
	var sends []send
	schema := local.Schema()
	for p := range senderSets {
		if !mine[p] {
			continue
		}
		buf := split[p]
		if buf == nil {
			buf = particle.NewBuffer(schema, 0)
		}
		sends = append(sends, send{to: aggregators[p], buf: buf})
	}

	var expectFrom []int
	var isAgg bool
	for p, aggRank := range aggregators {
		if aggRank == c.Rank() {
			expectFrom = senderSets[p]
			isAgg = true
			break
		}
	}
	agg, tm, err := exchange(c, schema, sends, expectFrom, isAgg)
	// The split bins are dead once exchange returns: every bundle has
	// either been encoded onto the wire or copied into the aggregation
	// buffer (the self-send). Recycle their columns for the next write.
	// Each split buffer appears at most once in sends, so no column is
	// returned to the pool twice.
	for _, buf := range split {
		particle.Recycle(buf)
	}
	if sanityErr != nil {
		err = sanityErr
	}
	return agg, tm, err
}
