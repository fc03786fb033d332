package gateway

import (
	"sync"
	"sync/atomic"
	"time"

	"spio/internal/server"
)

// breaker is a per-backend circuit breaker with three states:
//
//   - closed: calls flow; consecutive transport failures are counted.
//   - open: after threshold consecutive failures, calls are rejected
//     until the cooldown elapses.
//   - half-open: after the cooldown, exactly one probe call is let
//     through; its outcome closes or re-opens the breaker.
//
// Only transport-level failures (dead backend, timeout, drain) count —
// a backend that answers "bad query" quickly is healthy.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu        sync.Mutex
	fails     int
	openUntil time.Time // zero when closed
	probing   bool      // a half-open probe is in flight
}

// allow reports whether a call may proceed now. In the open state it
// admits a single probe per cooldown interval.
func (b *breaker) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.openUntil.IsZero() {
		return true
	}
	if now.Before(b.openUntil) || b.probing {
		return false
	}
	b.probing = true // half-open: this caller is the probe
	return true
}

// success records a completed exchange: the breaker closes.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	b.openUntil = time.Time{}
	b.probing = false
}

// failure records a transport-level failure; at threshold consecutive
// failures the breaker opens for one cooldown.
func (b *breaker) failure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	b.probing = false
	if b.fails >= b.threshold || !b.openUntil.IsZero() {
		b.openUntil = now.Add(b.cooldown)
	}
}

// open reports whether the breaker currently rejects calls.
func (b *breaker) open(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.openUntil.IsZero() && now.Before(b.openUntil)
}

// gwMetrics counts what only a sharded mount does; requests, errors,
// partial answers and connections are counted once, by the server's
// front.
type gwMetrics struct {
	fanout       atomic.Int64 // shard calls issued
	shardErrors  atomic.Int64 // shard calls that failed (after replica retries)
	breakerSkips atomic.Int64 // replica attempts rejected by an open breaker
}

// ShardMetrics reports the mount's counters and the open breakers of the
// backends it owns, for the server's metrics snapshot to sum.
func (m *gwMount) ShardMetrics() server.ShardMetrics {
	sm := server.ShardMetrics{
		Fanout:       m.metrics.fanout.Load(),
		ShardErrors:  m.metrics.shardErrors.Load(),
		BreakerSkips: m.metrics.breakerSkips.Load(),
	}
	now := time.Now()
	for _, be := range m.owns {
		if be.brk.open(now) {
			sm.OpenBreakers++
		}
	}
	return sm
}

// MetricsSnapshot is the part of a server's metrics image (opStats,
// /metrics) that a sharded deployment is read by: a decode type, whose
// keys are the top-level keys of server.MetricsSnapshot.
type MetricsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Requests      int64   `json:"requests"`
	Errors        int64   `json:"errors"`
	Partials      int64   `json:"partials"`
	Fanout        int64   `json:"fanout"`
	ShardErrors   int64   `json:"shard_errors"`
	BreakerSkips  int64   `json:"breaker_skips"`
	ActiveConns   int64   `json:"active_conns"`
	OpenBreakers  int     `json:"open_breakers"`
}
