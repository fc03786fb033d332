package gateway

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"
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

// gwMetrics counts what only the gateway does; requests, errors and
// connections are counted once, by the shared front.
type gwMetrics struct {
	partials     atomic.Int64 // requests answered with the partial-result flag
	fanout       atomic.Int64 // shard calls issued
	shardErrors  atomic.Int64 // shard calls that failed (after replica retries)
	breakerSkips atomic.Int64 // replica attempts rejected by an open breaker
}

// MetricsSnapshot is the JSON shape served for opStats.
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

// StatsJSON renders the metrics for opStats (server.Backend): the
// front's traffic counters beside the gateway's own.
func (g *Gateway) StatsJSON() []byte {
	now := time.Now()
	front := g.front.Snapshot()
	snap := MetricsSnapshot{
		UptimeSeconds: front.UptimeSeconds,
		Requests:      front.Requests,
		Errors:        front.Errors,
		Partials:      g.metrics.partials.Load(),
		Fanout:        g.metrics.fanout.Load(),
		ShardErrors:   g.metrics.shardErrors.Load(),
		BreakerSkips:  g.metrics.breakerSkips.Load(),
		ActiveConns:   front.ActiveConns,
	}
	for _, be := range g.backends {
		if be.brk.open(now) {
			snap.OpenBreakers++
		}
	}
	b, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		return []byte("{}")
	}
	return b
}
