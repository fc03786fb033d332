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

	"spio/internal/server"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "stats" {
		runStats(os.Args[2:])
		return
	}
	runServe(os.Args[1:])
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

// listenFlag collects repeated -listen addresses.
type listenFlag struct{ addrs []string }

func (l *listenFlag) String() string { return strings.Join(l.addrs, ",") }

func (l *listenFlag) Set(v string) error {
	l.addrs = append(l.addrs, v)
	return nil
}

func runServe(args []string) {
	fs := flag.NewFlagSet("spiod", flag.ExitOnError)
	var (
		mounts   mountFlag
		listens  listenFlag
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
	)
	fs.Var(&mounts, "mount", "serve name=dir (repeatable); dir is a dataset or a step-series base")
	fs.Var(&listens, "listen", "listen address: unix:/path or tcp:host:port (repeatable)")
	_ = fs.Parse(args) // ExitOnError: Parse cannot return an error here

	if len(mounts.mounts) == 0 {
		fmt.Fprintln(os.Stderr, "spiod: at least one -mount name=dir is required")
		fs.Usage()
		os.Exit(2)
	}
	if len(listens.addrs) == 0 {
		listens.addrs = []string{"unix:/tmp/spiod.sock"}
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

	errc := make(chan error, len(listens.addrs))
	for _, addr := range listens.addrs {
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
		if err := s.Shutdown(ctx); err != nil {
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
