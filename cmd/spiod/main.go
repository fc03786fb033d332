// Command spiod is spio's resident dataset server: it mounts dataset
// directories (or time-series bases) and serves the query surface to
// concurrent clients over a length-prefixed binary protocol on TCP or
// Unix sockets, with a shared block cache and admission control. Every
// read is one request and one response; a progressive read is its
// client asking for one level range after another.
//
//	spiod -mount sim=out/series -listen unix:/tmp/spiod.sock &
//	spioread -remote unix:/tmp/spiod.sock -dataset sim@latest -knn 0.5,0.5,0.5
//	spiod stats -addr unix:/tmp/spiod.sock
//
// A mount may also be sharded: one logical dataset whose shards other
// spiods serve. Each -shard flag appends one shard to a mount,
// mount=ref=addr[,addr], extra addresses being replicas retried when the
// primary fails; a query goes to the shards whose partitions it meets and
// their answers are merged. `spiod split` deals a dataset into shards:
//
//	spiod split -src out/sim -out /srv/shard0 -out /srv/shard1
//	spiod -mount sim=/srv/shard0 -listen unix:/tmp/s0.sock &
//	spiod -mount sim=/srv/shard1 -listen unix:/tmp/s1.sock &
//	spiod -shard sim=sim=unix:/tmp/s0.sock -shard sim=sim=unix:/tmp/s1.sock \
//	      -listen unix:/tmp/front.sock &
//
// SIGTERM/SIGINT drain gracefully: queued requests fail fast, in-flight
// requests complete, then the process exits.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"spio/internal/gateway"
	"spio/internal/server"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "split":
			runSplit(os.Args[2:])
			return
		case "stats":
			runStats(os.Args[2:])
			return
		}
	}
	runServe(os.Args[1:])
}

// runSplit implements `spiod split`: partition a dataset into shard
// datasets that spiods can mount and a sharded mount can name.
func runSplit(args []string) {
	fs := flag.NewFlagSet("spiod split", flag.ExitOnError)
	src := fs.String("src", "", "source dataset directory")
	var outs listFlag
	fs.Var(&outs, "out", "shard output directory (repeatable, one per shard)")
	_ = fs.Parse(args) // ExitOnError: Parse cannot return an error here
	if *src == "" || len(outs) == 0 {
		fmt.Fprintln(os.Stderr, "spiod split: -src and at least one -out are required")
		fs.Usage()
		os.Exit(2)
	}
	if err := gateway.Split(*src, outs); err != nil {
		fatal(err)
	}
	log.Printf("spiod: split %s into %d shards", *src, len(outs))
}

// runStats implements `spiod stats -addr ...`: fetch and print the
// server's metrics snapshot.
func runStats(args []string) {
	fs := flag.NewFlagSet("spiod stats", flag.ExitOnError)
	addr := fs.String("addr", "unix:/tmp/spiod.sock", "server address (unix:/path or tcp:host:port)")
	_ = fs.Parse(args) // ExitOnError: Parse cannot return an error here
	c, err := server.Dial(*addr)
	if err != nil {
		fatal(err)
	}
	defer c.Close()
	blob, err := c.Stats()
	if err != nil {
		fatal(err)
	}
	os.Stdout.Write(blob)
}

// mountFlag collects repeated -mount name=dir pairs.
type mountFlag struct{ mounts [][2]string }

func (m *mountFlag) String() string { return fmt.Sprintf("%d mounts", len(m.mounts)) }

func (m *mountFlag) Set(v string) error {
	name, dir, ok := strings.Cut(v, "=")
	if !ok || name == "" || dir == "" {
		return fmt.Errorf("want name=dir, got %q", v)
	}
	m.mounts = append(m.mounts, [2]string{name, dir})
	return nil
}

// listFlag collects a repeated string flag.
type listFlag []string

func (l *listFlag) String() string { return strings.Join(*l, ",") }

func (l *listFlag) Set(v string) error {
	*l = append(*l, v)
	return nil
}

// shardFlag collects repeated -shard mount=ref=addr[,addr] entries,
// keeping each mount's shard order.
type shardFlag struct {
	order  []string
	shards map[string][]gateway.ShardSpec
}

func (s *shardFlag) String() string { return fmt.Sprintf("%d mounts", len(s.order)) }

func (s *shardFlag) Set(v string) error {
	name, rest, _ := strings.Cut(v, "=")
	ref, addrs, ok := strings.Cut(rest, "=")
	if !ok || name == "" || ref == "" || addrs == "" {
		return fmt.Errorf("want mount=ref=addr[,addr...], got %q", v)
	}
	if s.shards == nil {
		s.shards = map[string][]gateway.ShardSpec{}
	}
	if _, seen := s.shards[name]; !seen {
		s.order = append(s.order, name)
	}
	s.shards[name] = append(s.shards[name], gateway.ShardSpec{Ref: ref, Addrs: strings.Split(addrs, ",")})
	return nil
}

func runServe(args []string) {
	fs := flag.NewFlagSet("spiod", flag.ExitOnError)
	var (
		mounts   mountFlag
		shards   shardFlag
		listens  listFlag
		workers  = fs.Int("workers", 0, "max concurrently executing requests (0 = default)")
		queue    = fs.Int("queue", 0, "max queued requests before fast-fail (0 = default)")
		cacheMB  = fs.Int64("cache-mb", 256, "shared block cache size in MiB")
		blockKB  = fs.Int("block-kb", 0, "block cache granularity in KiB (0 = default)")
		fcSlots  = fs.Int("file-cache", 0, "per-dataset open-file cache slots (0 = default)")
		respMB   = fs.Int64("max-resp-mb", 0, "per-request response budget in MiB (0 = default 1024)")
		fsck     = fs.String("fsck", server.FsckRefuse, "mount integrity policy: refuse|warn|off")
		metrics  = fs.String("metrics", "", "HTTP address for /metrics, /debug/vars and /debug/pprof/ (empty = off)")
		lockProf = fs.Bool("lock-profile", false, "record mutex contention and blocking for /debug/pprof/mutex and /debug/pprof/block")
		drainT   = fs.Duration("drain-timeout", 30*time.Second, "max wait for graceful drain on SIGTERM")
		pool     = fs.Int("pool", 0, "sharded mounts: max connections per backend (0 = default 4)")
		callT    = fs.Duration("call-timeout", 0, "sharded mounts: per-backend-call deadline (0 = default 30s)")
		failN    = fs.Int("breaker-failures", 0, "sharded mounts: consecutive failures that open a backend's circuit breaker (0 = default 3)")
		coolT    = fs.Duration("breaker-cooldown", 0, "sharded mounts: open-breaker probe interval (0 = default 5s)")
	)
	fs.Var(&mounts, "mount", "serve name=dir (repeatable); dir is a dataset or a step-series base")
	fs.Var(&shards, "shard", "append a shard to a sharded mount: mount=ref=addr[,replica-addr...] (repeatable; order defines the shard map)")
	fs.Var(&listens, "listen", "listen address: unix:/path or tcp:host:port (repeatable)")
	_ = fs.Parse(args) // ExitOnError: Parse cannot return an error here

	if len(mounts.mounts) == 0 && len(shards.order) == 0 {
		fmt.Fprintln(os.Stderr, "spiod: at least one -mount name=dir or -shard mount=ref=addr is required")
		fs.Usage()
		os.Exit(2)
	}
	if len(listens) == 0 {
		listens = []string{"unix:/tmp/spiod.sock"}
	}
	if *lockProf {
		// Every contended unlock, and on average one blocking event per
		// 10 µs spent blocked.
		runtime.SetMutexProfileFraction(1)
		runtime.SetBlockProfileRate(int(10 * time.Microsecond))
	}

	cfg := server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheBytes:     *cacheMB << 20,
		BlockBytes:     *blockKB << 10,
		FileCacheSlots: *fcSlots,
		MaxRespBytes:   *respMB << 20,
		Fsck:           *fsck,
		Logf:           log.Printf,
	}
	s := server.New(cfg)
	for _, m := range mounts.mounts {
		if err := s.Mount(m[0], m[1]); err != nil {
			fatal(err)
		}
	}
	// The sharded mounts' backends: their pools close after the drain.
	g := gateway.On(s, gateway.Config{
		PoolSize:      *pool,
		CallTimeout:   *callT,
		FailThreshold: *failN,
		Cooldown:      *coolT,
		Logf:          log.Printf,
	})
	for _, name := range shards.order {
		if err := g.Mount(name, shards.shards[name]); err != nil {
			fatal(err)
		}
	}

	errc := make(chan error, len(listens))
	for _, addr := range listens {
		network, address, err := server.ParseAddr(addr)
		if err != nil {
			fatal(err)
		}
		if network == "unix" {
			// A previous unclean exit leaves the socket file behind.
			_ = os.Remove(address)
		}
		l, err := net.Listen(network, address)
		if err != nil {
			fatal(err)
		}
		log.Printf("spiod: listening on %s:%s", network, address)
		go func() { errc <- s.Serve(l) }()
	}

	// The metrics server owns an explicit listener and signals its exit
	// on a channel, so the drain path can close it and wait: the
	// goroutine can be both cancelled (listener close) and awaited
	// (channel receive) instead of leaking with the process.
	var metricsLis net.Listener
	var metricsDone chan struct{}
	if *metrics != "" {
		expvar.Publish("spiod", expvar.Func(func() any { return s.Snapshot() }))
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write(s.StatsJSON())
		})
		mux.Handle("/debug/vars", expvar.Handler())
		// The profiles, on this mux only: pprof.Index serves the named
		// ones (heap, goroutine, mutex, block, …) under /debug/pprof/;
		// the CPU profile and the execution trace are sampled on request.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		var err error
		metricsLis, err = net.Listen("tcp", *metrics)
		if err != nil {
			fatal(err)
		}
		metricsDone = make(chan struct{})
		go func() {
			if err := http.Serve(metricsLis, mux); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("spiod: metrics server: %v", err)
			}
			close(metricsDone)
		}()
		log.Printf("spiod: metrics on http://%s/metrics", metricsLis.Addr())
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		log.Printf("spiod: %v: draining (timeout %v)", sig, *drainT)
		ctx, cancel := context.WithTimeout(context.Background(), *drainT)
		defer cancel()
		if err := g.Shutdown(ctx); err != nil {
			log.Printf("spiod: drain incomplete: %v", err)
			os.Exit(1)
		}
		if metricsLis != nil {
			_ = metricsLis.Close()
			<-metricsDone
		}
		log.Printf("spiod: drained cleanly")
	case err := <-errc:
		if err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "spiod: %v\n", err)
	os.Exit(1)
}
