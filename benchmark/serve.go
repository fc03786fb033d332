package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spio"
	"spio/internal/gateway"
)

const (
	mountName = "d65"
	nClients  = 2 // closed loop, one connection each (= nproc of the reference box)
)

// countingListener counts the bytes its connections carry, which is how
// the harness measures wire bytes without touching the program.
type countingListener struct {
	net.Listener
	in, out atomic.Int64 // read from / written to the dialling side
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, l: l}, nil
}

type countingConn struct {
	net.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.out.Add(int64(n))
	return n, err
}

// server is what the spiod and the gateway have in common.
type server interface {
	Serve(net.Listener) error
	Shutdown(context.Context) error
}

// daemon is one spiod or spiogate serving on a unix socket of its own.
type daemon struct {
	srv  server
	lis  *countingListener
	addr string
	done chan error
}

func serveOn(srv server, sock string) (*daemon, error) {
	l, err := net.Listen("unix", sock)
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, lis: &countingListener{Listener: l}, addr: "unix:" + sock, done: make(chan error, 1)}
	go func() { d.done <- srv.Serve(d.lis) }()
	return d, nil
}

func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.done; err == nil {
		err = serr
	}
	return err
}

// serveSpec describes one serving workload.
type serveSpec struct {
	name       string
	lossless   bool // store D65 lossless-compressed
	cacheDiv   int64
	shards     int // 0: one spiod and no gateway
	clients    int // 0: nClients
	passes     int // at the reference run length
	opsPerPass int
}

// serveEnv is a running deployment: the dataset on disk, the spiods,
// the gateway if any, and the client connections.
type serveEnv struct {
	dir      string
	dataDir  string // the unsharded dataset
	stored   int64  // bytes of dataDir
	step     writeStep
	spiods   []*spio.Server
	daemons  []*daemon // backends first, the gateway last
	front    *daemon   // what clients dial
	clients  []*spio.RemoteDataset
	statsCli *spio.ServerClient
}

// bringUp writes the dataset, splits it if asked, starts the servers
// and connects the clients. dir must be a short relative path: unix
// socket paths are limited to about 100 bytes.
func bringUp(spec serveSpec, d *dataset, dir string, seed int64) (*serveEnv, error) {
	e := &serveEnv{dir: dir, dataDir: filepath.Join(dir, "data")}
	var codec spio.CodecSpec
	if spec.lossless {
		codec = spio.LosslessCodec(d.schema)
	}
	var err error
	if e.step, err = d.write(e.dataDir, codec, seed, nil, -1); err != nil {
		return nil, err
	}
	if e.stored, err = dirBytes(e.dataDir); err != nil {
		return nil, err
	}
	var cfg spio.ServerConfig
	if spec.cacheDiv > 0 {
		cfg.CacheBytes = e.stored / spec.cacheDiv
	}
	mounts := []string{e.dataDir}
	if spec.shards > 0 {
		mounts = make([]string, spec.shards)
		for i := range mounts {
			mounts[i] = filepath.Join(dir, fmt.Sprintf("shard%d", i))
		}
		if err := spio.SplitDataset(e.dataDir, mounts); err != nil {
			return e, err
		}
	}
	var specs []spio.ShardSpec
	for i, m := range mounts {
		srv := spio.NewServer(cfg)
		if err := srv.Mount(mountName, m); err != nil {
			return e, err
		}
		dm, err := serveOn(srv, filepath.Join(dir, fmt.Sprintf("s%d.sock", i)))
		if err != nil {
			return e, err
		}
		e.spiods = append(e.spiods, srv)
		e.daemons = append(e.daemons, dm)
		specs = append(specs, spio.ShardSpec{Ref: mountName, Addrs: []string{dm.addr}})
	}
	e.front = e.daemons[0]
	if spec.shards > 0 {
		gw := spio.NewGateway(spio.GatewayConfig{})
		if err := gw.Mount(mountName, specs); err != nil {
			return e, err
		}
		dm, err := serveOn(gw, filepath.Join(dir, "gw.sock"))
		if err != nil {
			return e, err
		}
		e.daemons = append(e.daemons, dm)
		e.front = dm
		if e.statsCli, err = spio.DialServer(dm.addr); err != nil {
			return e, err
		}
	}
	clients := spec.clients
	if clients == 0 {
		clients = nClients
	}
	for i := 0; i < clients; i++ {
		c, err := spio.Dial(e.front.addr, mountName)
		if err != nil {
			return e, err
		}
		e.clients = append(e.clients, c)
	}
	return e, nil
}

// close stops every server, waits for each, and removes the files.
func (e *serveEnv) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, c := range e.clients {
		keep(c.Close())
	}
	if e.statsCli != nil {
		keep(e.statsCli.Close())
	}
	// Front first: a gateway must stop before the backends it calls.
	for i := len(e.daemons) - 1; i >= 0; i-- {
		keep(e.daemons[i].stop())
	}
	keep(os.RemoveAll(e.dir))
	return first
}

// counters is the sum of the spiods' metric snapshots plus the
// gateway's, taken around a measured phase.
type counters struct {
	srv        spio.ServerMetrics // summed over the spiods
	fileHits   int64
	fileMisses int64
	fileEvict  int64
	gw         gateway.MetricsSnapshot
	wireOut    int64 // bytes the front wrote to clients
}

func (e *serveEnv) counters() (counters, error) {
	var c counters
	for _, s := range e.spiods {
		m := s.Snapshot()
		c.srv.Errors += m.Errors
		c.srv.Overloaded += m.Overloaded
		c.srv.QueueWaitNs += m.QueueWaitNs
		c.srv.ServiceNs += m.ServiceNs
		c.srv.BlockCache.Hits += m.BlockCache.Hits
		c.srv.BlockCache.Misses += m.BlockCache.Misses
		c.srv.BlockCache.Evictions += m.BlockCache.Evictions
		c.srv.BlockCache.BytesFromDisk += m.BlockCache.BytesFromDisk
		c.srv.DecodedCache.Hits += m.DecodedCache.Hits
		c.srv.DecodedCache.Misses += m.DecodedCache.Misses
		for _, ds := range m.Datasets {
			c.fileHits += ds.FileCache.Hits
			c.fileMisses += ds.FileCache.Misses
			c.fileEvict += ds.FileCache.Evictions
		}
	}
	if e.statsCli != nil {
		blob, err := e.statsCli.Stats()
		if err != nil {
			return c, fmt.Errorf("gateway stats: %w", err)
		}
		if err := json.Unmarshal(blob, &c.gw); err != nil {
			return c, fmt.Errorf("gateway stats: %w", err)
		}
	}
	c.wireOut = e.front.lis.out.Load()
	return c, nil
}

// opSample is one op as its client saw it.
type opSample struct {
	kind       opKind
	ns         int64
	firstLevel int64 // streams: time to the first level
}

type passResult struct {
	wall      time.Duration
	samples   []opSample
	userBytes int64
	failed    int
	// answers and errs are kept only by the warm-up pass, for the oracle.
	answers []answer
	errs    []error
}

// runPass replays ops once, closed loop over the client connections:
// each client takes the next op when its previous answer has arrived.
// With keep the full answers are retained for verification; otherwise
// each answer is compared with the op's expected summary as soon as the
// op's timer has stopped.
func (e *serveEnv) runPass(ops []op, tr *tracer, pass int, keep bool, logf func(string, ...any)) passResult {
	res := passResult{samples: make([]opSample, len(ops))}
	if keep {
		res.answers = make([]answer, len(ops))
		res.errs = make([]error, len(ops))
	}
	var next, userBytes, failed atomic.Int64
	var wg sync.WaitGroup
	runtime.GC()
	t0 := time.Now()
	for _, c := range e.clients {
		wg.Add(1)
		go func(c *spio.RemoteDataset) {
			defer wg.Done()
			var scratch []uint64
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				o := &ops[i]
				opID := pass*len(ops) + i
				root := tr.begin("op."+kindNames[o.kind], -1, opID)
				start := time.Now()
				a, err := execOp(c, o, tr, root, opID)
				res.samples[i] = opSample{kind: o.kind, ns: int64(time.Since(start)), firstLevel: int64(a.firstLevel)}
				if keep {
					res.answers[i], res.errs[i] = a, err
					tr.end(root)
					continue
				}
				sp := tr.begin("harness.check", root, opID)
				got := a.summarise(o.kind, &scratch)
				tr.end(sp)
				tr.end(root)
				userBytes.Add(got.userBytes)
				switch {
				case err != nil:
					logf("pass %d op %d (%s): %v", pass, i, kindNames[o.kind], err)
					failed.Add(1)
				case a.partial || !got.matches(o.want):
					logf("pass %d op %d (%s): wrong answer: partial=%v n=%d want %d", pass, i, kindNames[o.kind], a.partial, got.n, o.want.n)
					failed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(t0)
	res.userBytes = userBytes.Load()
	res.failed = int(failed.Load())
	return res
}
