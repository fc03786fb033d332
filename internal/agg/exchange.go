package agg

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"spio/internal/binio"
	"spio/internal/geom"
	"spio/internal/mpi"
	"spio/internal/particle"
)

// Message tags for the two exchange phases (Section 3.3).
const (
	tagMetaCount = 1 // metadata exchange: particle counts
	tagData      = 2 // particle exchange: encoded records
)

// encodeCount and decodeCount are the metadata exchange's message: how
// many particles a sender has for an aggregator.
func encodeCount(e *binio.Writer, n int64) { e.I64(n) }

func decodeCount(d *binio.Reader) int64 { return d.I64() }

// Timing records how long each write phase took on this rank; the
// aggregation-vs-file-I/O breakdown is what Fig. 6 reports.
type Timing struct {
	// Setup is the write's steps 1–2 before any exchange: validating the
	// configuration and the input, building or fitting the layout.
	Setup            time.Duration
	MetadataExchange time.Duration
	ParticleExchange time.Duration
	Reorder          time.Duration
	FileIO           time.Duration
	// Encode is the part of FileIO spent compressing the payload (zero
	// for a raw one): of FileIO, not beside it.
	Encode time.Duration
	// MetaIO is the metadata row's cost: the aggregator's field-range
	// scan, the gather and rank 0's write of meta.spmd.
	MetaIO time.Duration
	// Wait is the time spent in the error-agreement rounds that passed:
	// blocked until the slowest rank has finished the phase before.
	Wait time.Duration
	// Abort is the time spent in the error-agreement round that failed a
	// write, and in the cleanup after it; zero on the success path.
	Abort time.Duration
	// ExchangeBytes counts the particle payload bytes this rank received
	// over the wire during the data phase (self-sends are encoded in
	// place and are not counted).
	ExchangeBytes int64
}

// Aggregation returns the total time spent moving data over the network
// (the "Data aggregation" bar of Fig. 6).
func (t Timing) Aggregation() time.Duration {
	return t.MetadataExchange + t.ParticleExchange
}

// Total returns the end-to-end write time on this rank.
func (t Timing) Total() time.Duration {
	return t.Setup + t.Aggregation() + t.Reorder + t.FileIO + t.MetaIO + t.Wait + t.Abort
}

// send is one outgoing bundle: count particles for one aggregator, and
// the sender's encode of them — records [lo, hi) of the bundle into dst.
type send struct {
	to     int
	count  int
	encode func(dst []byte, lo, hi int)
}

// exchange runs the paper's two-phase protocol from one rank's
// perspective:
//
//  1. Metadata exchange — each sender tells each of its aggregators how
//     many particles to expect (the aggregators "do not know a-priori
//     how many data packets to expect, nor how big a buffer to
//     allocate").
//  2. The aggregate sized once from the received counts, with each
//     sender's offset in it fixed by the globally known sender order.
//  3. Particle exchange — non-blocking point-to-point sends of the
//     encoded records, received with AnySource in arrival order and each
//     copied to its sender's offset.
//
// The aggregate is rows: a payload is already the record encoding the
// file holds, so nothing is decoded here, and the one transposition of
// the write path is the sender's encode. Because placement is by offset,
// not arrival, the aggregate is byte-identical to rank-order assembly
// whatever the delivery schedule (the paper's non-blocking consumption,
// Section 3.3). The data phase's AnySource matching does mean consecutive
// exchanges on the same communicator must be separated by a collective
// (or run on Dup'd communicators) so one exchange cannot consume the next
// one's payloads; every caller in internal/core satisfies this via the
// error-agreement rounds.
//
// sends lists this rank's outgoing bundles (the self bundle is encoded
// straight into its place). expectFrom lists, for an aggregator rank, the
// ranks it must hear a count from; isAgg says whether this rank is an
// aggregator (an aggregator's sender set may legitimately be empty).
// Returns the aggregate (empty but non-nil for aggregators with nothing
// to receive, nil for non-aggregators), which is the caller's to Release
// whatever the error, and the phase timings.
//
// Content errors (malformed counts, unannounced, repeated or short
// payloads) do not abort the protocol mid-flight: the rank keeps posting
// every send and receive its peers count on, records the first error, and
// reports it only after the exchange is drained. An early return here
// would leave peers blocked in Recv — error agreement happens
// collectively in the caller (internal/core), which requires every rank
// to reach it. The rows of a sender whose payload was refused hold
// whatever the pooled segments held; the agreed abort releases them
// unread.
func exchange(c *mpi.Comm, schema *particle.Schema, sends []send, expectFrom []int, isAgg bool) (*particle.Rows, Timing, error) {
	var tm Timing
	var firstErr error
	note := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	stride := schema.Stride()

	// Phase 1: metadata exchange.
	start := time.Now()
	var self *send
	for i := range sends {
		s := &sends[i]
		if s.to == c.Rank() {
			self = s
			continue
		}
		var cnt bytes.Buffer
		encodeCount(binio.NewWriter(&cnt), int64(s.count))
		c.Isend(s.to, tagMetaCount, cnt.Bytes())
	}
	// region is where one sender's particles go: count rows from row at
	// of the aggregate, its place in expectFrom — the sender order every
	// rank derives from globally known geometry — and not its arrival.
	type region struct {
		at, count int
		got       bool
	}
	regions := make(map[int]*region, len(expectFrom))
	total, pending := 0, 0
	for _, src := range expectFrom {
		reg := &region{at: total}
		regions[src] = reg
		if src == c.Rank() {
			if self != nil {
				reg.count = self.count
			}
		} else {
			data, _ := c.Recv(src, tagMetaCount)
			d := binio.NewReader(bytes.NewReader(data), "agg")
			n := decodeCount(d)
			if d.Whole(len(data)) != nil || n < 0 || n > int64(math.MaxInt/stride-total) {
				// Not eight bytes, negative, or more than an aggregate can
				// hold. Treat the count as zero so no data receive is posted
				// for src; if src nevertheless sends a data message it stays
				// queued and is discarded with the communicator (see DESIGN
				// §9 on stray messages after a content error).
				note(fmt.Errorf("agg: malformed count message from rank %d (%d bytes: % x)", src, len(data), data))
				continue
			}
			reg.count = int(n)
			if n > 0 {
				pending++
			}
		}
		total += reg.count
	}
	tm.MetadataExchange = time.Since(start)

	// Phase 2: size the aggregate once from the counts. Aggregators
	// always get one, even when every sender announced zero particles.
	// Its rows start out as whatever the pooled segments held: on the
	// success path every one is overwritten before anything reads it (the
	// self region by the encode below, every other announced region by
	// its payload), and on a content error the collective agreement in
	// the caller aborts the write before the aggregate is consumed.
	start = time.Now()
	var agg *particle.Rows
	if isAgg {
		agg = particle.NewRows(schema)
		agg.Extend(total)
	}

	// Phase 3: particle exchange. Sends are posted first (eager,
	// non-blocking). Each payload is encoded into a pooled slice
	// (particle.Bytes; the encode fills every byte) whose ownership moves
	// to the receiver (SendOwned), so the wire bytes are written exactly
	// once — encoding into a rank-local scratch would force the transport
	// to copy the payload again. The self bundle never exists as a
	// payload: it is encoded into its rows.
	for _, s := range sends {
		if s.to == c.Rank() || s.count == 0 {
			continue
		}
		payload := particle.Bytes.Get(s.count * stride)
		s.encode(payload, 0, s.count)
		c.SendOwned(s.to, tagData, payload)
	}
	if reg := regions[c.Rank()]; agg != nil && reg != nil && reg.count > 0 {
		agg.Span(reg.at, reg.count, func(lo int, dst []byte) {
			self.encode(dst, lo, lo+len(dst)/stride)
		})
	}

	// Receive in arrival order: AnySource, first payload in wins, copied
	// to its sender's region and handed back to the pool. The loop
	// ends when every announced payload has been consumed, whatever else
	// arrived in between.
	for pending > 0 {
		data, st := c.Recv(mpi.AnySource, tagData)
		src := st.Source
		reg := regions[src]
		switch {
		case reg == nil || src == c.Rank() || reg.count == 0:
			// A payload nobody announced. Drop it and keep the receive
			// posted — the announced payloads are still in flight and
			// peers count on us consuming them.
			note(fmt.Errorf("agg: unexpected data message from rank %d (%d bytes)", src, len(data)))
		case reg.got:
			note(fmt.Errorf("agg: duplicate data message from rank %d", src))
		default:
			reg.got = true
			pending--
			if want := reg.count * stride; len(data) != want {
				note(fmt.Errorf("agg: rank %d announced %d particles but sent %d bytes (want %d)",
					src, reg.count, len(data), want))
				break
			}
			tm.ExchangeBytes += int64(len(data))
			agg.Span(reg.at, reg.count, func(lo int, dst []byte) {
				copy(dst, data[lo*stride:])
			})
		}
		particle.Bytes.Put(data)
	}
	tm.ParticleExchange = time.Since(start)
	return agg, tm, firstErr
}

// Aggregate is an aggregator's share of an exchange: the partition it
// owns and that partition's particles as rows, in sender order. Rows is
// nil on a rank that aggregates nothing (Part is then -1); otherwise it is
// the holder's to Release, whatever error came with it.
type Aggregate struct {
	Part int
	Box  geom.Box
	Rows *particle.Rows
}

// Exchange runs the two-phase exchange from this rank. A rank whose block
// is one cell sends its whole buffer to that cell's aggregator with no
// per-particle scan (Section 3.3, "each process can simply send all of its
// particles to the process which owns the partition"). Any other block is
// scanned (SplitByPartition) and one bundle goes to every cell of it, zero
// counts included, each encoded straight from the caller's columns through
// its bin's index list; an empty block sends nothing. Every rank must hold
// the identical layout.
func (l *Layout) Exchange(c *mpi.Comm, local *particle.Buffer) (Aggregate, Timing, error) {
	if len(l.blocks) != c.Size() {
		return Aggregate{Part: -1}, Timing{}, fmt.Errorf("agg: layout built for %d ranks, world has %d", len(l.blocks), c.Size())
	}
	var sends []send
	if b := l.blocks[c.Rank()]; b.lo == b.hi {
		sends = []send{{to: l.aggregators[b.lo.Linear(l.Grid.Dims)], count: local.Len(), encode: local.EncodeRecordsInto}}
	} else {
		split := SplitByPartition(local, l.Grid, b.lo, b.hi)
		b.cells(l.Grid.Dims, func(p int) {
			idx := split[p]
			sends = append(sends, send{to: l.aggregators[p], count: len(idx), encode: func(dst []byte, lo, hi int) {
				local.EncodeRecordsGather(dst, idx[lo:hi])
			}})
		})
	}

	ag := Aggregate{Part: -1}
	var expectFrom []int
	part, isAgg := l.IsAggregator(c.Rank())
	if isAgg {
		ag.Part, ag.Box = part, l.PartitionBox(part)
		expectFrom = l.senders[part]
	}
	var tm Timing
	var err error
	ag.Rows, tm, err = exchange(c, local.Schema(), sends, expectFrom, isAgg)
	return ag, tm, err
}
