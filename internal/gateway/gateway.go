// Package gateway implements spiogate, the scatter-gather front tier
// for sharded spiod serving. A gateway mounts one logical dataset as a
// set of shards — disjoint file subsets served by spiod backends — and
// speaks the unmodified spiod wire protocol on its front, so spio.Dial
// works against a gateway exactly as against a single daemon. For each
// query it computes the minimal shard set whose aggregation partitions
// intersect the request, fans out over bounded per-backend connection
// pools, and merges the shard answers so the result is byte-identical
// (up to particle order) to a single node serving the whole dataset:
// the paper's metadata-driven file pruning, lifted one tier up from
// files to servers.
//
// Failure containment is first-class: per-backend circuit breakers,
// per-call timeouts, retry across replicas when a shard is served by
// more than one backend, and graceful-drain routing. A dead backend
// degrades the answer to a flagged partial result instead of failing
// the query.
package gateway

import (
	"context"
	"fmt"
	"io"
	"net"
	"slices"
	"time"

	"spio/internal/format"
	"spio/internal/geom"
	"spio/internal/server"
)

// Config tunes a Gateway. The zero value serves with sane defaults.
type Config struct {
	// PoolSize bounds live connections per backend (default 4): the
	// gateway's per-backend fan-out cap.
	PoolSize int
	// CallTimeout bounds each backend exchange; an expired call counts
	// as a backend failure (default 30s; < 0 disables).
	CallTimeout time.Duration
	// FailThreshold is the consecutive-failure count that opens a
	// backend's circuit breaker (default 3).
	FailThreshold int
	// Cooldown is how long an open breaker rejects a backend before
	// letting one probe through (default 5s).
	Cooldown time.Duration
	// MaxFrame bounds response frames accepted from backends (default
	// server.DefaultMaxFrame).
	MaxFrame int64
	// Logf, when non-nil, receives gateway log lines.
	Logf func(format string, args ...any)
}

func (c *Config) poolSize() int {
	if c.PoolSize > 0 {
		return c.PoolSize
	}
	return 4
}

func (c *Config) callTimeout() time.Duration {
	if c.CallTimeout < 0 {
		return 0
	}
	if c.CallTimeout == 0 {
		return 30 * time.Second
	}
	return c.CallTimeout
}

func (c *Config) failThreshold() int {
	if c.FailThreshold > 0 {
		return c.FailThreshold
	}
	return 3
}

func (c *Config) cooldown() time.Duration {
	if c.Cooldown > 0 {
		return c.Cooldown
	}
	return 5 * time.Second
}

func (c *Config) maxFrame() int64 {
	if c.MaxFrame > 0 {
		return c.MaxFrame
	}
	return server.DefaultMaxFrame
}

// ShardSpec names one shard of a mounted dataset: the dataset reference
// the shard's files are served under, and the backends holding it. The
// first address is the primary; any further addresses are replicas the
// gateway retries when the primary fails — listing a shard on two
// backends is what buys a query availability under single-backend loss.
type ShardSpec struct {
	Ref   string
	Addrs []string
}

// Gateway is the resident front-tier state: mounted shard maps over
// pooled backend connections, served through the same server.Front as a
// spiod, whose Backend it is.
type Gateway struct {
	cfg Config

	backends map[string]*backend // keyed by address; shared across mounts
	mounts   map[string]*gwMount

	front   *server.Front
	metrics gwMetrics
}

// gwMount is one logical dataset assembled from shards; it answers the
// front's server.Dataset seam by scatter-gather (merge.go).
type gwMount struct {
	g      *Gateway
	name   string
	shards []*gwShard
	merged *format.Meta // concatenated shard metadata; the front's opMeta answer
}

// Meta returns the merged metadata.
func (m *gwMount) Meta() *format.Meta { return m.merged }

// gwShard is one shard: a disjoint file subset with its spatial
// geometry and the backends serving it.
type gwShard struct {
	idx      int
	ref      string
	replicas []*backend
	meta     *format.Meta
	bounds   geom.Box // union of the shard's file partitions and particle bounds
}

// backend is one spiod address: its connection pool and health state.
type backend struct {
	addr string
	pool *server.ClientPool
	brk  breaker
}

// New builds a Gateway; Mount shard maps, then Serve listeners.
func New(cfg Config) *Gateway {
	g := &Gateway{
		cfg:      cfg,
		backends: map[string]*backend{},
		mounts:   map[string]*gwMount{},
	}
	// The front runs on its defaults for workers, queue depth and
	// response budget: the admission that guards a spiod guards the
	// gateway's fan-out the same way.
	g.front = server.NewFront(server.Config{}, g)
	return g
}

// Serve accepts front connections on l until Shutdown. It returns nil
// on drain-triggered listener close.
func (g *Gateway) Serve(l net.Listener) error { return g.front.Serve(l) }

// Shutdown drains the front — stop accepting, let in-flight requests
// finish, send idle connections a drain notice — and then closes the
// backend pools. The context bounds the wait; when it expires the pools
// are left to the requests still using them.
func (g *Gateway) Shutdown(ctx context.Context) error {
	if err := g.front.Shutdown(ctx); err != nil {
		return err
	}
	for _, be := range g.backends {
		_ = be.pool.Close() // gateway going away; per-conn errors are moot
	}
	return nil
}

func (g *Gateway) logf(format string, args ...any) {
	if g.cfg.Logf != nil {
		g.cfg.Logf(format, args...)
	}
}

// backendFor returns (creating if needed) the shared backend state for
// one address. Mount-time only; not locked.
func (g *Gateway) backendFor(addr string) *backend {
	if be, ok := g.backends[addr]; ok {
		return be
	}
	opts := []server.DialOption{server.WithMaxFrame(g.cfg.maxFrame())}
	if d := g.cfg.callTimeout(); d > 0 {
		opts = append(opts, server.WithCallTimeout(d))
	}
	be := &backend{
		addr: addr,
		pool: server.NewClientPool(addr, g.cfg.poolSize(), opts...),
	}
	be.brk.threshold = g.cfg.failThreshold()
	be.brk.cooldown = g.cfg.cooldown()
	g.backends[addr] = be
	return be
}

// Mount assembles the shards into one logical dataset served under
// name. It contacts one live replica per shard to fetch the shard's
// metadata, verifies the shards agree on schema/domain/LOD and that
// their partitions are disjoint, and precomputes the merged metadata
// image the front serves for opMeta. Mount everything before Serve.
func (g *Gateway) Mount(name string, specs []ShardSpec) error {
	if name == "" {
		return fmt.Errorf("spiogate: empty mount name")
	}
	if _, dup := g.mounts[name]; dup {
		return fmt.Errorf("spiogate: mount %s: name already in use", name)
	}
	if len(specs) == 0 {
		return fmt.Errorf("spiogate: mount %s: no shards", name)
	}
	m := &gwMount{g: g, name: name}
	for i, spec := range specs {
		if len(spec.Addrs) == 0 {
			return fmt.Errorf("spiogate: mount %s: shard %d has no backends", name, i)
		}
		sh := &gwShard{idx: i, ref: spec.Ref}
		for _, addr := range spec.Addrs {
			sh.replicas = append(sh.replicas, g.backendFor(addr))
		}
		meta, err := g.fetchShardMeta(sh)
		if err != nil {
			return fmt.Errorf("spiogate: mount %s: shard %d (%s): %w", name, i, spec.Ref, err)
		}
		sh.meta = meta
		sh.bounds = geom.EmptyBox()
		for j := range meta.Files {
			// A file's particles may lie outside its half-open partition
			// (see format.Meta.FilesIntersecting); NaN bounds are not valid.
			sh.bounds = sh.bounds.Union(meta.Files[j].Partition)
			if b := meta.Files[j].Bounds; b.IsValid() {
				sh.bounds = sh.bounds.Union(b)
			}
		}
		m.shards = append(m.shards, sh)
	}
	merged, err := mergeMetas(m.shards)
	if err != nil {
		return fmt.Errorf("spiogate: mount %s: %w", name, err)
	}
	if err := format.EncodeMeta(io.Discard, merged); err != nil {
		// EncodeMeta validates: overlapping shard partitions or count
		// mismatches are caught here, before the mount is served.
		return fmt.Errorf("spiogate: mount %s: merged metadata invalid: %w", name, err)
	}
	m.merged = merged
	g.mounts[name] = m
	g.logf("spiogate: mounted %s: %d shards, %d files, %d particles",
		name, len(m.shards), len(merged.Files), merged.Total)
	return nil
}

// fetchShardMeta retrieves a shard's metadata from the first replica
// that answers. A backend that passed the hello's version check speaks
// every extension the merge semantics depend on.
func (g *Gateway) fetchShardMeta(sh *gwShard) (*format.Meta, error) {
	var lastErr error
	for _, be := range sh.replicas {
		c, err := be.pool.Get()
		if err != nil {
			lastErr = err
			continue
		}
		ds, err := c.Open(sh.ref)
		be.pool.Put(c)
		if err != nil {
			lastErr = err
			continue
		}
		return ds.Meta(), nil
	}
	return nil, fmt.Errorf("no replica reachable: %w", lastErr)
}

// mergeMetas concatenates the shard metadata (in mount order) into the
// logical dataset's metadata, verifying the shards agree on everything
// a reader derives semantics from.
func mergeMetas(shards []*gwShard) (*format.Meta, error) {
	first := shards[0].meta
	merged := &format.Meta{
		Domain:          first.Domain,
		SimDims:         first.SimDims,
		PartitionFactor: first.PartitionFactor,
		AggDims:         first.AggDims,
		Schema:          first.Schema,
		LOD:             first.LOD,
		Heuristic:       first.Heuristic,
	}
	for i, sh := range shards {
		m := sh.meta
		if i > 0 {
			if m.Domain != first.Domain {
				return nil, fmt.Errorf("shard %d domain %v disagrees with shard 0 %v", i, m.Domain, first.Domain)
			}
			if m.LOD != first.LOD || m.Heuristic != first.Heuristic {
				return nil, fmt.Errorf("shard %d LOD parameters disagree with shard 0", i)
			}
			if !m.Schema.Equal(first.Schema) {
				return nil, fmt.Errorf("shard %d schema disagrees with shard 0", i)
			}
		}
		merged.Total += m.Total
		merged.Files = append(merged.Files, m.Files...)
	}
	return merged, nil
}

// Resolve maps a front dataset reference to its mount (server.Backend).
// Gateways serve plain names only — step selection happens at the shard
// layer, where the series lives.
func (g *Gateway) Resolve(ref string) (server.Dataset, error) {
	m, ok := g.mounts[ref]
	if !ok {
		return nil, fmt.Errorf("spiogate: no dataset mounted as %q", ref)
	}
	return m, nil
}

// List returns the mounted dataset names, sorted, as a spiod lists its
// own (server.Backend).
func (g *Gateway) List() []string {
	names := make([]string, 0, len(g.mounts))
	for name := range g.mounts {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// withShard runs fn against the first available replica of sh,
// advancing past open breakers, dead backends, and draining servers. A
// clean request-level failure (budget, bad query) is definitive and
// returned immediately; transport-level failures mark the replica and
// move on.
func (g *Gateway) withShard(sh *gwShard, fn func(ds *server.RemoteDataset) error) error {
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
		err = fn(c.Attach(sh.ref, sh.meta))
		broken := c.Broken()
		be.pool.Put(c)
		if err == nil {
			be.brk.success()
			return nil
		}
		lastErr = err
		if broken {
			// Transport failure or drain: this replica is out; try the
			// next one.
			be.brk.failure(time.Now())
			continue
		}
		// The exchange completed: the backend is healthy, the request
		// itself failed. No other replica would answer differently.
		be.brk.success()
		return err
	}
	return lastErr
}

var errShardDown = fmt.Errorf("spiogate: shard unavailable: all replicas down or circuit-broken")
