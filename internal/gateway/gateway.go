// Package gateway implements spiod's sharded mounts: one logical dataset
// assembled from shards — disjoint file subsets served by other spiods —
// mounted on a server.Server beside its local mounts and served by the
// same front, so spio.Dial works against it exactly as against a single
// daemon. For each query a sharded mount computes the minimal shard set
// whose aggregation partitions intersect the request, fans out over
// bounded per-backend connection pools, and merges the shard answers so
// the result is byte-identical (up to particle order) to a single node
// serving the whole dataset: the paper's metadata-driven file pruning,
// lifted one tier up from files to servers.
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
	"math"
	"net"
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

// ShardSpec names one shard of a mounted dataset: the dataset reference
// the shard's files are served under, and the backends holding it. The
// first address is the primary; any further addresses are replicas the
// gateway retries when the primary fails — listing a shard on two
// backends is what buys a query availability under single-backend loss.
type ShardSpec struct {
	Ref   string
	Addrs []string
}

// Gateway is the shard registry of one server: the backends its sharded
// mounts call, each with its connection pool and circuit breaker, shared
// by every mount that names the same address.
type Gateway struct {
	cfg      Config
	srv      *server.Server
	backends map[string]*backend // keyed by address
}

// gwMount is one logical dataset assembled from shards; it answers the
// front's server.Dataset seam by scatter-gather (merge.go).
type gwMount struct {
	shards  []*gwShard
	merged  *format.Meta // concatenated shard metadata; the front's opMeta answer
	metrics gwMetrics
	// owns are the backends this mount was the first to name. It reports
	// their breakers, so a backend two mounts share is counted once.
	owns []*backend
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
	// regions holds, per non-empty file, the union of its partition and
	// its particle bounds: the boxes a particle of the shard lies in (see
	// format.Meta.FilesIntersecting).
	regions []geom.Box
}

// dist is a lower bound on the distance from p to any particle of the
// shard: to its nearest file's region. A non-empty file without valid
// bounds may hold a particle anywhere, so it is at distance 0.
func (sh *gwShard) dist(p geom.Vec3) float64 {
	d := math.Inf(1)
	for _, r := range sh.regions {
		d = min(d, r.Dist(p))
	}
	return d
}

// backend is one spiod address: its connection pool and health state.
type backend struct {
	addr string
	pool *server.ClientPool
	brk  breaker
}

// On builds the shard registry of srv: Mount shard maps, which srv
// serves beside its own mounts.
func On(srv *server.Server, cfg Config) *Gateway {
	return &Gateway{cfg: cfg, srv: srv, backends: map[string]*backend{}}
}

// New builds a Gateway on a server of its own, with no local mounts and
// the front's defaults for workers, queue depth and response budget;
// Mount shard maps, then Serve listeners.
func New(cfg Config) *Gateway {
	return On(server.New(server.Config{Logf: cfg.Logf}), cfg)
}

// Serve accepts connections on l until Shutdown (see server.Server.Serve).
func (g *Gateway) Serve(l net.Listener) error { return g.srv.Serve(l) }

// Shutdown drains the server — stop accepting, let in-flight requests
// finish, send idle connections a drain notice — and then closes the
// backend pools. The context bounds the wait; when it expires the pools
// are left to the requests still using them.
func (g *Gateway) Shutdown(ctx context.Context) error {
	if err := g.srv.Shutdown(ctx); err != nil {
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

// backendFor returns (creating if needed, owned by m) the shared backend
// state for one address. Mount-time only; not locked.
func (g *Gateway) backendFor(m *gwMount, addr string) *backend {
	if be, ok := g.backends[addr]; ok {
		return be
	}
	var opts []server.DialOption
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
	m.owns = append(m.owns, be)
	return be
}

// Mount assembles the shards into one logical dataset and mounts it on
// the server under name (server.Server.MountDataset: Mount's name rules,
// and a name no other mount has). It contacts one live replica per shard
// to fetch the shard's metadata, verifies the shards agree on
// schema/domain/LOD and that their partitions are disjoint, and
// precomputes the merged metadata image the front serves for opMeta.
// Mount everything before Serve. A mount that fails closes the backends
// it was the first to name.
func (g *Gateway) Mount(name string, specs []ShardSpec) (err error) {
	m := new(gwMount)
	defer func() {
		if err != nil {
			for _, be := range m.owns {
				delete(g.backends, be.addr)
				_ = be.pool.Close() // never served a query
			}
		}
	}()
	if len(specs) == 0 {
		return fmt.Errorf("gateway: mount %s: no shards", name)
	}
	for i, spec := range specs {
		if len(spec.Addrs) == 0 {
			return fmt.Errorf("gateway: mount %s: shard %d has no backends", name, i)
		}
		sh := &gwShard{idx: i, ref: spec.Ref}
		for _, addr := range spec.Addrs {
			sh.replicas = append(sh.replicas, g.backendFor(m, addr))
		}
		meta, err := fetchShardMeta(sh)
		if err != nil {
			return fmt.Errorf("gateway: mount %s: shard %d (%s): %w", name, i, spec.Ref, err)
		}
		sh.meta = meta
		for _, f := range meta.Files {
			// A file's particles may lie outside its half-open partition
			// (see format.Meta.FilesIntersecting); NaN bounds are not valid.
			switch {
			case f.Count == 0:
			case f.Bounds.IsValid():
				sh.regions = append(sh.regions, f.Partition.Union(f.Bounds))
			default:
				inf := math.Inf(1)
				sh.regions = append(sh.regions, geom.NewBox(geom.V3(-inf, -inf, -inf), geom.V3(inf, inf, inf)))
			}
		}
		m.shards = append(m.shards, sh)
	}
	merged, err := mergeMetas(m.shards)
	if err != nil {
		return fmt.Errorf("gateway: mount %s: %w", name, err)
	}
	if err := format.EncodeMeta(io.Discard, merged); err != nil {
		// EncodeMeta validates: overlapping shard partitions or count
		// mismatches are caught here, before the mount is served.
		return fmt.Errorf("gateway: mount %s: merged metadata invalid: %w", name, err)
	}
	m.merged = merged
	if err := g.srv.MountDataset(name, m); err != nil {
		return err
	}
	g.logf("gateway: mounted %s: %d shards, %d files, %d particles",
		name, len(m.shards), len(merged.Files), merged.Total)
	return nil
}

// fetchShardMeta retrieves a shard's metadata from the first replica
// that answers. A backend that passed the hello's version check speaks
// every extension the merge semantics depend on.
func fetchShardMeta(sh *gwShard) (*format.Meta, error) {
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

// withShard runs fn against the first available replica of sh,
// advancing past open breakers, dead backends, and draining servers. A
// clean request-level failure (budget, bad query) is definitive and
// returned immediately; transport-level failures mark the replica and
// move on.
func (m *gwMount) withShard(sh *gwShard, fn func(ds *server.RemoteDataset) error) error {
	var lastErr error = errShardDown
	for _, be := range sh.replicas {
		if !be.brk.allow(time.Now()) {
			m.metrics.breakerSkips.Add(1)
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

var errShardDown = fmt.Errorf("gateway: shard unavailable: all replicas down or circuit-broken")
