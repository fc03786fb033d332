package gateway

import (
	"errors"
	"time"

	"spio/internal/geom"
	"spio/internal/particle"
	rdr "spio/internal/reader"
	"spio/internal/server"
)

// shardStream is one backend's half of a fanned-out progressive
// stream: the pooled client it holds for the stream's duration, and
// where it is in its level sequence.
type shardStream struct {
	be     *backend
	c      *server.Client
	stream *server.RemoteStream
	rows   *particle.Rows // this level's increment
	failed bool
}

// put returns the stream's connection to its pool (broken connections
// are closed there).
func (ss *shardStream) put() {
	if ss.c != nil {
		ss.be.pool.Put(ss.c)
		ss.c = nil
	}
}

// openShardStream starts one shard's progressive stream on its first
// available replica, keeping the pooled connection checked out until
// the stream ends.
func (g *Gateway) openShardStream(sh *gwShard, box geom.Box, levels, readers int, base int64, noFilter bool) (*shardStream, error) {
	var lastErr error = errShardDown
	for _, be := range sh.replicas {
		if !be.brk.allow(time.Now()) {
			g.metrics.breakerSkips.Add(1)
			continue
		}
		c, err := be.pool.Get()
		if err != nil {
			be.brk.failure(time.Now())
			lastErr = err
			continue
		}
		ds := c.Attach(sh.ref, sh.meta)
		q := box
		if noFilter {
			q = sh.meta.Domain
		}
		st, err := ds.ProgressiveBoxBase(q, levels, readers, base)
		if err != nil {
			broken := c.Broken()
			be.pool.Put(c)
			lastErr = err
			if broken {
				be.brk.failure(time.Now())
				continue
			}
			be.brk.success()
			return nil, err // request-level refusal: definitive
		}
		be.brk.success()
		return &shardStream{be: be, c: c, stream: st}, nil
	}
	return nil, lastErr
}

// gwStream is a progressive LOD stream assembled from shard streams
// with a per-level barrier: NextLevel returns level L only after every
// contributing shard has delivered its level-L increment, so the merged
// stream is exactly as strictly coarse-first as a single node's. The
// front's ack loop drives it, so each client ack becomes one ack to
// every shard stream — the end consumer's rate is the backends' read
// rate. A shard failing mid-stream drops out (its remaining levels are
// lost) and flags the stream partial; the survivors keep refining.
type gwStream struct {
	g       *Gateway
	schema  *particle.Schema
	shards  []*shardStream
	partial bool
	level   int // levels delivered
	done    bool
}

// Stream opens the shard streams of a progressive read (server.Dataset).
func (m *gwMount) Stream(box geom.Box, opts rdr.Options) (server.LevelStream, error) {
	targets := m.shardsFor(box, opts.NoFilter)
	if len(targets) == 0 {
		return nil, errors.New("spiod: no files intersect the requested box")
	}
	base := m.mergedBase(opts.Readers)
	s := &gwStream{g: m.g, schema: m.merged.Schema}
	var openErr error
	for _, sh := range targets {
		ss, err := m.g.openShardStream(sh, box, opts.Levels, opts.Readers, base, opts.NoFilter)
		if err != nil {
			m.g.metrics.shardErrors.Add(1)
			s.partial = true
			openErr = err
			continue
		}
		s.shards = append(s.shards, ss)
	}
	if len(s.shards) == 0 {
		return nil, openErr
	}
	return s, nil
}

// NextLevel advances every live shard one level and returns the merged
// increment — the shards' rows, moved together in shard order; ok is
// false once no shard has anything left to give.
func (s *gwStream) NextLevel() (*particle.Rows, bool, error) {
	// The fetches run concurrently; each goroutine writes only its own
	// stream's fields and signals done exactly once, so the collector's
	// full drain bounds them all.
	live := 0
	fetched := make(chan struct{})
	for _, ss := range s.shards {
		if ss.failed || ss.stream.Done() {
			continue
		}
		live++
		go func(ss *shardStream) {
			rows, ok, err := ss.stream.NextLevelRows()
			switch {
			case err != nil:
				ss.failed = true
				s.g.metrics.shardErrors.Add(1)
			case ok:
				ss.rows = rows
			}
			fetched <- struct{}{}
		}(ss)
	}
	for i := 0; i < live; i++ {
		<-fetched
	}
	if live == 0 {
		return nil, false, nil // acked past the end
	}

	out := particle.NewRows(s.schema)
	allDone, anyLive := true, false
	for _, ss := range s.shards {
		if ss.failed {
			s.partial = true
			ss.put() // broken conn goes back (and is closed) promptly
			continue
		}
		anyLive = true
		if ss.rows != nil {
			out.Append(ss.rows)
			ss.rows = nil
		}
		if !ss.stream.Done() {
			allDone = false
		} else {
			ss.put() // finished cleanly; the conn is reusable now
		}
	}
	if !anyLive {
		return nil, false, nil // every shard died mid-stream: nothing left to refine
	}
	s.level++
	s.done = allDone
	return out, true, nil
}

// Level returns the number of levels delivered.
func (s *gwStream) Level() int { return s.level }

// Done reports whether every surviving shard stream has ended.
func (s *gwStream) Done() bool { return s.done }

// Stats sums the shard streams' cumulative read telemetry.
func (s *gwStream) Stats() rdr.Stats {
	var read rdr.Stats
	for _, ss := range s.shards {
		read.Add(ss.stream.Stats())
	}
	read.Partial = read.Partial || s.partial
	return read
}

// Close cancels the shard streams still running and returns their
// connections to the pools.
func (s *gwStream) Close() error {
	for _, ss := range s.shards {
		if ss.c != nil && !ss.stream.Done() {
			_ = ss.stream.Cancel() // abandoned stream; conn state handled by put
		}
		ss.put()
	}
	return nil
}
