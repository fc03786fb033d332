package gateway

import (
	"context"
	"encoding/json"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spio/internal/geom"
	rdr "spio/internal/reader"
	"spio/internal/server"
)

func TestBreakerStates(t *testing.T) {
	b := breaker{threshold: 3, cooldown: time.Minute}
	now := time.Unix(1000, 0)

	// Closed: admits everything, failures below threshold keep it closed.
	for i := 0; i < 2; i++ {
		if !b.allow(now) {
			t.Fatalf("closed breaker refused after %d failures", i)
		}
		b.failure(now)
	}
	if !b.allow(now) {
		t.Fatal("breaker opened below threshold")
	}

	// Third consecutive failure opens it for the cooldown.
	b.failure(now)
	if b.allow(now.Add(time.Second)) {
		t.Fatal("open breaker admitted a request inside the cooldown")
	}

	// Half-open: after the cooldown exactly one probe goes through.
	later := now.Add(2 * time.Minute)
	if !b.allow(later) {
		t.Fatal("breaker refused the half-open probe after cooldown")
	}
	if b.allow(later) {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}

	// A failed probe re-opens for a fresh cooldown.
	b.failure(later)
	if b.allow(later.Add(time.Second)) {
		t.Fatal("breaker admitted a request right after a failed probe")
	}

	// A successful probe closes it fully.
	again := later.Add(2 * time.Minute)
	if !b.allow(again) {
		t.Fatal("breaker refused the second probe")
	}
	b.success()
	if !b.allow(again) || !b.allow(again) {
		t.Fatal("closed breaker throttled after success")
	}

	// Success resets the consecutive-failure count.
	b.failure(again)
	b.failure(again)
	if !b.allow(again) {
		t.Fatal("breaker opened on stale failure count after success")
	}
}

// flapListener is a backend that goes away and comes back: while down it
// hangs up on whoever connects, and going down hangs up on everyone
// connected.
type flapListener struct {
	net.Listener
	mu    sync.Mutex
	down  bool
	conns []net.Conn
}

func (l *flapListener) over(inner net.Listener) net.Listener {
	l.Listener = inner
	return l
}

func (l *flapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.down {
		_ = c.Close() // the server finds it closed at its first read
	} else {
		l.conns = append(l.conns, c)
	}
	return c, nil
}

func (l *flapListener) set(down bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.down = down
	if down {
		for _, c := range l.conns {
			_ = c.Close()
		}
		l.conns = nil
	}
}

// TestStatsBesideFlappingShard reads the breakers the way an operator
// does — the server's StatsJSON, polled — while requests open and close them: eight
// clients fan out through a gateway one of whose three shards flaps, with
// a threshold of one failure and a cooldown shorter than a flap. It is a
// -race test: with the lock in breaker.open dropped nothing else fails.
// Every answer is whole or flagged partial, and the poll sees the breaker
// open at least once.
func TestStatsBesideFlappingShard(t *testing.T) {
	src := t.TempDir()
	writeDataset(t, src, geom.I3(4, 4, 2), geom.I3(2, 2, 1), 30)
	dirs := make([]string, 3)
	for i := range dirs {
		dirs[i] = filepath.Join(t.TempDir(), "shard")
	}
	if err := Split(src, dirs); err != nil {
		t.Fatal(err)
	}
	flap := &flapListener{}
	specs := make([]ShardSpec, len(dirs))
	for i, dir := range dirs {
		var addr string
		if i == 1 {
			var s *server.Server
			s, addr = serveSpiod(t, dir, server.Config{Workers: 2}, flap.over)
			t.Cleanup(func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				_ = s.Shutdown(ctx)
			})
		} else {
			addr, _ = startBackend(t, dir)
		}
		specs[i] = ShardSpec{Ref: "shard", Addrs: []string{addr}}
	}
	g, addr := startGateway(t, Config{CallTimeout: 5 * time.Second, FailThreshold: 1, Cooldown: time.Millisecond}, specs)

	probe, err := server.OpenRemote(addr, "sim")
	if err != nil {
		t.Fatal(err)
	}
	domain, total := probe.Meta().Domain, probe.Meta().Total
	probe.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ds, err := server.OpenRemote(addr, "sim")
			if err != nil {
				t.Error(err)
				return
			}
			defer ds.Close()
			for !stop.Load() {
				got, st, err := ds.QueryBox(domain, rdr.Options{})
				if err != nil {
					t.Errorf("query beside a flapping shard: %v", err)
					return
				}
				if whole := int64(got.Len()) == total; whole == st.Partial {
					t.Errorf("%d of %d particles, partial=%v", got.Len(), total, st.Partial)
					return
				}
			}
		}()
	}
	sawOpen := false
	for flaps, deadline := 0, time.Now().Add(10*time.Second); (flaps < 20 || !sawOpen) && time.Now().Before(deadline); flaps++ {
		flap.set(flaps%2 == 0)
		for until := time.Now().Add(5 * time.Millisecond); time.Now().Before(until); {
			var snap MetricsSnapshot
			if err := json.Unmarshal(g.srv.StatsJSON(), &snap); err != nil {
				t.Fatal(err)
			}
			sawOpen = sawOpen || snap.OpenBreakers > 0
		}
	}
	stop.Store(true)
	wg.Wait()
	if !sawOpen {
		t.Error("no poll saw the flapping shard's breaker open")
	}
}
