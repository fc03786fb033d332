// Command spiogate is spio's scatter-gather front tier: it mounts one
// logical dataset as a set of shards served by spiod backends and
// speaks the unmodified spiod protocol to clients, routing each query
// to the minimal shard set whose aggregation partitions intersect it
// and merging the answers. Existing clients (spioread, spio.Dial) work
// against a gateway unchanged.
//
//	spiogate split -src out/sim -out /srv/shard0 -out /srv/shard1 -out /srv/shard2
//	spiod -mount sim=/srv/shard0 -listen unix:/tmp/s0.sock &
//	spiod -mount sim=/srv/shard1 -listen unix:/tmp/s1.sock &
//	spiod -mount sim=/srv/shard2 -listen unix:/tmp/s2.sock &
//	spiogate -shard sim=sim=unix:/tmp/s0.sock \
//	         -shard sim=sim=unix:/tmp/s1.sock \
//	         -shard sim=sim=unix:/tmp/s2.sock -listen unix:/tmp/gate.sock &
//	spioread -remote unix:/tmp/gate.sock -dataset sim -box 0,0,0,0.5,0.5,0.5
//
// Each -shard flag appends one shard to a mount: mount=ref=addr[,addr]
// with extra addresses as replicas the gateway retries when the
// primary fails. SIGTERM/SIGINT drain gracefully.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
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

// runSplit implements `spiogate split`: partition a dataset into shard
// datasets spiod backends can mount.
func runSplit(args []string) {
	fs := flag.NewFlagSet("spiogate split", flag.ExitOnError)
	src := fs.String("src", "", "source dataset directory")
	var outs listFlag
	fs.Var(&outs, "out", "shard output directory (repeatable, one per shard)")
	_ = fs.Parse(args) // ExitOnError: Parse cannot return an error here
	if *src == "" || len(outs.vals) == 0 {
		fmt.Fprintln(os.Stderr, "spiogate split: -src and at least one -out are required")
		fs.Usage()
		os.Exit(2)
	}
	if err := gateway.Split(*src, outs.vals); err != nil {
		fatal(err)
	}
	log.Printf("spiogate: split %s into %d shards", *src, len(outs.vals))
}

// runStats implements `spiogate stats -addr ...`.
func runStats(args []string) {
	fs := flag.NewFlagSet("spiogate stats", flag.ExitOnError)
	addr := fs.String("addr", "unix:/tmp/spiogate.sock", "gateway address (unix:/path or tcp:host:port)")
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

// listFlag collects a repeated string flag.
type listFlag struct{ vals []string }

func (l *listFlag) String() string { return strings.Join(l.vals, ",") }

func (l *listFlag) Set(v string) error {
	l.vals = append(l.vals, v)
	return nil
}

// shardFlag collects repeated -shard mount=ref=addr[,addr] entries,
// preserving per-mount shard order.
type shardFlag struct {
	order  []string
	shards map[string][]gateway.ShardSpec
}

func (s *shardFlag) String() string { return fmt.Sprintf("%d mounts", len(s.order)) }

func (s *shardFlag) Set(v string) error {
	name, rest, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return fmt.Errorf("want mount=ref=addr[,addr...], got %q", v)
	}
	ref, addrs, ok := strings.Cut(rest, "=")
	if !ok || ref == "" || addrs == "" {
		return fmt.Errorf("want mount=ref=addr[,addr...], got %q", v)
	}
	if s.shards == nil {
		s.shards = map[string][]gateway.ShardSpec{}
	}
	if _, seen := s.shards[name]; !seen {
		s.order = append(s.order, name)
	}
	s.shards[name] = append(s.shards[name], gateway.ShardSpec{
		Ref:   ref,
		Addrs: strings.Split(addrs, ","),
	})
	return nil
}

func runServe(args []string) {
	fs := flag.NewFlagSet("spiogate", flag.ExitOnError)
	var (
		shards  shardFlag
		listens listFlag
		pool    = fs.Int("pool", 0, "max connections per backend (0 = default 4)")
		callT   = fs.Duration("call-timeout", 0, "per-backend-call deadline (0 = default 30s)")
		failN   = fs.Int("breaker-failures", 0, "consecutive failures that open a backend's circuit breaker (0 = default 3)")
		coolT   = fs.Duration("breaker-cooldown", 0, "open-breaker probe interval (0 = default 5s)")
		drainT  = fs.Duration("drain-timeout", 30*time.Second, "max wait for graceful drain on SIGTERM")
	)
	fs.Var(&shards, "shard", "append a shard: mount=ref=addr[,replica-addr...] (repeatable; order defines the shard map)")
	fs.Var(&listens, "listen", "listen address: unix:/path or tcp:host:port (repeatable)")
	_ = fs.Parse(args) // ExitOnError: Parse cannot return an error here

	if len(shards.order) == 0 {
		fmt.Fprintln(os.Stderr, "spiogate: at least one -shard mount=ref=addr is required")
		fs.Usage()
		os.Exit(2)
	}
	if len(listens.vals) == 0 {
		listens.vals = []string{"unix:/tmp/spiogate.sock"}
	}

	g := gateway.New(gateway.Config{
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

	errc := make(chan error, len(listens.vals))
	for _, addr := range listens.vals {
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
		log.Printf("spiogate: listening on %s:%s", network, address)
		go func() { errc <- g.Serve(l) }()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		log.Printf("spiogate: %v: draining (timeout %v)", sig, *drainT)
		ctx, cancel := context.WithTimeout(context.Background(), *drainT)
		defer cancel()
		if err := g.Shutdown(ctx); err != nil {
			log.Printf("spiogate: drain incomplete: %v", err)
			os.Exit(1)
		}
		log.Printf("spiogate: drained cleanly")
	case err := <-errc:
		if err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "spiogate: %v\n", err)
	os.Exit(1)
}
