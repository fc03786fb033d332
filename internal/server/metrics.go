package server

import (
	"encoding/json"
	"sync/atomic"
	"time"

	rdr "spio/internal/reader"
)

// metrics is the front's live counter set, updated per request with
// atomics (many worker goroutines, no lock).
type metrics struct {
	startNano int64

	requests   atomic.Int64
	errors     atomic.Int64
	overloaded atomic.Int64
	drained    atomic.Int64
	partials   atomic.Int64 // answers flagged partial

	bytesServed atomic.Int64

	filesOpened    atomic.Int64
	particlesRead  atomic.Int64
	bytesRead      atomic.Int64
	cacheHits      atomic.Int64
	bytesFromCache atomic.Int64

	queueWaitNs atomic.Int64
	serviceNs   atomic.Int64

	activeConns atomic.Int64
}

// note records one completed request's telemetry.
func (m *metrics) note(st *wireStats) {
	m.requests.Add(1)
	m.filesOpened.Add(int64(st.Read.FilesOpened))
	m.particlesRead.Add(st.Read.ParticlesRead)
	m.bytesRead.Add(st.Read.BytesRead)
	m.cacheHits.Add(st.Read.CacheHits)
	m.bytesFromCache.Add(st.Read.BytesFromCache)
	m.queueWaitNs.Add(st.QueueWait)
	m.serviceNs.Add(st.Service)
}

// DatasetMetrics is one mounted dataset's slice of the metrics snapshot.
type DatasetMetrics struct {
	// Dir is the dataset directory being served.
	Dir string `json:"dir"`
	// Particles and Files describe the dataset's size.
	Particles int64 `json:"particles"`
	Files     int   `json:"files"`
	// FileCache is the dataset's open-file cache counters, including
	// the eviction and bytes-from-cache satellites.
	FileCache rdr.CacheStats `json:"file_cache"`
}

// DecodedCacheStats is what is left of the decoded-block tier (deleted:
// DESIGN.md §13.4): always zero. The field and its keys stay because the
// /metrics image is read by the benchmark, which is a fixed contract.
type DecodedCacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// ShardMetrics is what the sharded mounts count beside the front: shard
// calls, the ones that failed after their replica retries, replica
// attempts an open circuit breaker turned away, and the backends whose
// breaker is open now, each address counted once.
type ShardMetrics struct {
	Fanout       int64 `json:"fanout"`
	ShardErrors  int64 `json:"shard_errors"`
	BreakerSkips int64 `json:"breaker_skips"`
	OpenBreakers int   `json:"open_breakers"`
}

// A sharded mount's dataset reports its ShardMetrics; the snapshot sums
// them over the mounts.
type shardReporter interface{ ShardMetrics() ShardMetrics }

// MetricsSnapshot is the JSON image served on /metrics, by `spiod
// stats`, and published to expvar — the Darshan-style aggregate view of
// what the daemon's I/O has been doing.
type MetricsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`

	Requests   int64 `json:"requests"`
	Errors     int64 `json:"errors"`
	Overloaded int64 `json:"overloaded"`
	Drained    int64 `json:"drained"`
	Partials   int64 `json:"partials"`

	ShardMetrics

	BytesServed int64 `json:"bytes_served"`

	FilesOpened    int64 `json:"files_opened"`
	ParticlesRead  int64 `json:"particles_read"`
	BytesRead      int64 `json:"bytes_read"`
	CacheHits      int64 `json:"cache_hits"`
	BytesFromCache int64 `json:"bytes_from_cache"`

	QueueWaitNs int64 `json:"queue_wait_ns"`
	ServiceNs   int64 `json:"service_ns"`

	ActiveConns int64 `json:"active_conns"`

	BlockCache   BlockCacheStats           `json:"block_cache"`
	DecodedCache DecodedCacheStats         `json:"decoded_cache"`
	Datasets     map[string]DatasetMetrics `json:"datasets"`
}

// Snapshot is the front's own part of the metrics image: the request,
// connection and byte counters. A Backend adds what it owns.
func (f *Front) Snapshot() MetricsSnapshot {
	m := &f.metrics
	return MetricsSnapshot{
		UptimeSeconds:  time.Duration(time.Now().UnixNano() - m.startNano).Seconds(),
		Requests:       m.requests.Load(),
		Errors:         m.errors.Load(),
		Overloaded:     m.overloaded.Load(),
		Drained:        m.drained.Load(),
		Partials:       m.partials.Load(),
		BytesServed:    m.bytesServed.Load(),
		FilesOpened:    m.filesOpened.Load(),
		ParticlesRead:  m.particlesRead.Load(),
		BytesRead:      m.bytesRead.Load(),
		CacheHits:      m.cacheHits.Load(),
		BytesFromCache: m.bytesFromCache.Load(),
		QueueWaitNs:    m.queueWaitNs.Load(),
		ServiceNs:      m.serviceNs.Load(),
		ActiveConns:    m.activeConns.Load(),
	}
}

// Snapshot assembles the current metrics image: the front's counters,
// the shared block cache, every opened dataset's file-cache counters, and
// the sharded mounts' counters summed.
func (s *Server) Snapshot() MetricsSnapshot {
	snap := s.front.Snapshot()
	snap.BlockCache = s.cache.Stats()
	snap.Datasets = map[string]DatasetMetrics{}
	for _, mt := range s.mountList() {
		if mt.ds != nil {
			if r, ok := mt.ds.(shardReporter); ok {
				sm := r.ShardMetrics()
				snap.Fanout += sm.Fanout
				snap.ShardErrors += sm.ShardErrors
				snap.BreakerSkips += sm.BreakerSkips
				snap.OpenBreakers += sm.OpenBreakers
			}
			continue
		}
		mt.open.Each(func(ref string, ds *rdr.Dataset) {
			key := mt.name
			if mt.series {
				key = mt.name + "@" + ref
			}
			snap.Datasets[key] = DatasetMetrics{
				Dir:       ds.Dir(),
				Particles: ds.Meta().Total,
				Files:     len(ds.Meta().Files),
				FileCache: ds.CacheStats(),
			}
		})
	}
	return snap
}

// StatsJSON is the /metrics and opStats body (Backend).
func (s *Server) StatsJSON() []byte {
	b, err := json.MarshalIndent(s.Snapshot(), "", "  ")
	if err != nil {
		// The snapshot is plain counters; marshaling cannot fail. Keep the
		// wire alive anyway.
		return []byte("{}")
	}
	return append(b, '\n')
}
