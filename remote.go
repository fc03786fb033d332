package spio

import (
	"spio/internal/gateway"
	"spio/internal/server"
)

// Remote serving (cmd/spiod): the same query surface as the local
// Dataset, served by a resident daemon over TCP or Unix sockets, with a
// shared block cache and admission control behind it.

type (
	// RemoteDataset is a dataset served by a spiod daemon; it mirrors
	// the local Dataset's query methods (QueryBox, ReadAll, KNN, Halo,
	// DensityGrid, progressive streams).
	RemoteDataset = server.RemoteDataset
	// ServerClient is one connection to a spiod daemon (List, Stats,
	// Open of multiple datasets over a single connection).
	ServerClient = server.Client
	// ServerConfig tunes an embedded Server.
	ServerConfig = server.Config
	// Server is an embeddable spiod: mount datasets, serve listeners.
	Server = server.Server
	// ServerMetrics is the daemon's JSON metrics snapshot.
	ServerMetrics = server.MetricsSnapshot
)

// Serving errors a client should branch on.
var (
	// ErrOverloaded marks a request shed by the daemon's admission
	// controller (queue full): back off and retry.
	ErrOverloaded = server.ErrOverloaded
	// ErrDraining marks a request refused because the daemon is shutting
	// down.
	ErrDraining = server.ErrDraining
	// ErrBudget marks a response that would exceed the daemon's
	// per-request byte budget.
	ErrBudget = server.ErrBudget
)

// DialOption customizes a daemon connection at dial time.
type DialOption = server.DialOption

// WireCodecRaw is the one wire form there is: an answer travels as its
// record bytes.
//
// Deprecated: nothing selects a wire form any more. The constant and
// WithWireCodec stay only because benchmark/layers.go, a fixed contract
// this repository does not edit, still dials with them.
const WireCodecRaw uint8 = 0

// WithWireCodec does nothing.
//
// Deprecated: see WireCodecRaw.
func WithWireCodec(uint8) DialOption { return func(*ServerClient) {} }

// WithMaxFrame caps the response frames the client will accept, in
// bytes (default server.DefaultMaxFrame, 256 MiB): the client's own
// guard against a corrupt or hostile length prefix committing it to a
// huge allocation.
func WithMaxFrame(n int64) DialOption { return server.WithMaxFrame(n) }

// Dial connects to a spiod daemon ("unix:/path", "tcp:host:port", or a
// bare socket path / host:port) and opens one dataset reference
// ("name", "name@N", "name@latest"). Closing the RemoteDataset closes
// the connection.
func Dial(addr, dataset string, opts ...DialOption) (*RemoteDataset, error) {
	return server.OpenRemote(addr, dataset, opts...)
}

// DialServer connects without opening a dataset — for List, Stats, or
// multiple Opens over one connection.
func DialServer(addr string, opts ...DialOption) (*ServerClient, error) {
	return server.Dial(addr, opts...)
}

// NewServer builds an embeddable serving daemon (the library form of
// cmd/spiod).
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }

// Queryable is the query surface shared by the local Dataset and the
// remote RemoteDataset, letting analysis tools run unchanged against
// either backend.
type Queryable interface {
	Meta() *Meta
	QueryBox(q Box, opts QueryOptions) (*Buffer, ReadStats, error)
	ReadAll(opts QueryOptions) (*Buffer, ReadStats, error)
	KNN(p Vec3, k int) (*Buffer, []float64, ReadStats, error)
	Halo(patch Box, halo float64, opts QueryOptions) (own, ghost *Buffer, st ReadStats, err error)
	DensityGrid(dims Idx3, levels, readers int) ([]float64, float64, ReadStats, error)
	LevelCount(nReaders int) int
	Close() error
}

// Compile-time check: both backends satisfy Queryable.
var (
	_ Queryable = (*Dataset)(nil)
	_ Queryable = (*RemoteDataset)(nil)
)

// Sharded serving (spiod -shard): a sharded mount is one logical
// dataset whose shards separate spiod backends hold; it routes each query
// to the minimal shard set whose partitions intersect it and merges the
// answers — the paper's spatial pruning lifted from files to servers. It
// is served by the same front as a local mount, so Dial works against it
// unchanged.

type (
	// Gateway is the shard registry of a server: Mount shard maps, then
	// Serve front listeners. A dead backend degrades queries to flagged
	// partial results (ReadStats.Partial) instead of errors.
	Gateway = gateway.Gateway
	// GatewayConfig tunes pooling, per-call timeouts, and the
	// per-backend circuit breakers of a Gateway.
	GatewayConfig = gateway.Config
	// ShardSpec names one shard of a sharded mount: the dataset ref its
	// backends serve it under and their addresses (first is primary,
	// the rest are failover replicas).
	ShardSpec = gateway.ShardSpec
)

// NewGateway builds an embeddable server whose mounts are sharded (the
// library form of spiod -shard with no -mount).
func NewGateway(cfg GatewayConfig) *Gateway { return gateway.New(cfg) }

// SplitDataset partitions the dataset at srcDir into spatially compact
// shard datasets, one per output directory, for spiod backends to serve
// and a sharded mount to name (spiod split). Together the shards hold exactly the source's
// files.
func SplitDataset(srcDir string, outDirs []string) error {
	return gateway.Split(srcDir, outDirs)
}
