package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spio/internal/agg"
	"spio/internal/core"
	"spio/internal/fault"
	"spio/internal/format"
	"spio/internal/geom"
	"spio/internal/mpi"
	"spio/internal/particle"
	rdr "spio/internal/reader"
)

// TestProgressiveStreamMatchesLocal: a remote stream takes one request a
// level, and its stats are the sum of theirs — what the same level ranges
// read as box queries report — as a local stream's are of its level
// reads, so the two account for the same work. Then what follows from it
// being a cursor its client holds: a level bound caps it, a cancel costs
// the server nothing, and a box no file intersects is refused from the
// metadata, with the local stream's error. The bytes of every level, and
// Done level by level, are TestReadContract's (internal/gateway).
func TestProgressiveStreamMatchesLocal(t *testing.T) {
	dir := t.TempDir()
	writeDataset(t, dir, geom.I3(2, 2, 1), geom.I3(1, 1, 1), 300)
	s := New(Config{})
	if err := s.Mount("sim", dir); err != nil {
		t.Fatal(err)
	}
	ds, err := OpenRemote(startServer(t, s), "sim")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	local, err := rdr.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	q := ds.Meta().Domain
	st, _ := ds.ProgressiveBox(q, 0, 2)
	before := s.Snapshot().Requests
	for !st.Done() {
		if _, ok, err := st.NextLevel(); err != nil || !ok {
			t.Fatalf("level %d: ok=%v err=%v", st.Level(), ok, err)
		}
	}
	if _, ok, err := st.NextLevel(); ok || err != nil || st.Level() != ds.LevelCount(2) {
		t.Fatalf("level past the end of %d (LevelCount %d): ok=%v err=%v", st.Level(), ds.LevelCount(2), ok, err)
	}
	if got := s.Snapshot().Requests - before; got != int64(st.Level()) {
		t.Errorf("%d levels took %d requests", st.Level(), got)
	}
	var sum rdr.Stats
	for l := 0; l < st.Level(); l++ {
		_, read, err := ds.QueryBox(q, rdr.Options{SkipLevels: l, Levels: l + 1, Readers: 2, NoFilter: true})
		if err != nil {
			t.Fatal(err)
		}
		sum.Add(read)
	}
	mine, _ := local.ProgressiveBox(q, 0, 2)
	for !mine.Done() {
		if _, _, err := mine.NextLevel(); err != nil {
			t.Fatal(err)
		}
	}
	// The server's file cache decides which of a level's files it opened
	// and which it found open; the two together are the files it read.
	work := func(s rdr.Stats) [4]int64 {
		return [4]int64{int64(s.FilesOpened) + s.CacheHits, s.ParticlesRead, s.ParticlesKept, s.BytesRead}
	}
	if read := st.Stats(); read.ParticlesKept != ds.Meta().Total || work(read) != work(sum) || work(read) != work(mine.Stats()) {
		t.Errorf("stream stats %+v are not the sum of its %d level requests %+v, nor the local stream's %+v", read, st.Level(), sum, mine.Stats())
	}

	bounded, _ := ds.ProgressiveBox(q, 1, 2)
	if coarse, ok, err := bounded.NextLevel(); err != nil || !ok || coarse.Len() == 0 || !bounded.Done() {
		t.Fatalf("stream bounded to one level: ok=%v done=%v err=%v", ok, bounded.Done(), err)
	}
	before = s.Snapshot().Requests
	cancelled, _ := ds.ProgressiveBox(q, 0, 2)
	if err := cancelled.Cancel(); err != nil || !cancelled.Done() {
		t.Fatalf("cancel: done=%v err=%v", cancelled.Done(), err)
	}
	if _, ok, err := cancelled.NextLevel(); ok || err != nil || s.Snapshot().Requests != before {
		t.Fatalf("level after cancel: ok=%v err=%v, %d requests", ok, err, s.Snapshot().Requests-before)
	}
	outside := geom.NewBox(geom.V3(2, 2, 2), geom.V3(3, 3, 3))
	_, err = ds.ProgressiveBox(outside, 0, 1)
	_, localErr := local.ProgressiveBox(outside, 0, 1)
	if err == nil || localErr == nil || err.Error() != localErr.Error() {
		t.Fatalf("stream over a box outside every file: %v, locally %v; want one refusal", err, localErr)
	}
}

// TestOverloadFastFail drives more concurrency than workers+queue can
// hold and expects immediate ErrOverloaded rejections instead of
// unbounded queueing.
func TestOverloadFastFail(t *testing.T) {
	dir := t.TempDir()
	writeDataset(t, dir, geom.I3(2, 1, 1), geom.I3(1, 1, 1), 50)
	s := New(Config{Workers: 1, QueueDepth: 1})
	s.front.requestDelay = 150 * time.Millisecond // hold the single worker busy
	if err := s.Mount("sim", dir); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, s)

	const clients = 8
	var ok, overloaded, other atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ds, err := OpenRemote(addr, "sim") // opMeta occupies the worker briefly too
			if err != nil {
				if errors.Is(err, ErrOverloaded) {
					overloaded.Add(1)
				} else {
					other.Add(1)
				}
				return
			}
			defer ds.Close()
			_, _, err = ds.QueryBox(ds.Meta().Domain, rdr.Options{})
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, ErrOverloaded):
				overloaded.Add(1)
			default:
				other.Add(1)
			}
		}()
	}
	wg.Wait()
	if other.Load() != 0 {
		t.Fatalf("unexpected errors: ok=%d overloaded=%d other=%d", ok.Load(), overloaded.Load(), other.Load())
	}
	if ok.Load() == 0 || overloaded.Load() == 0 {
		t.Fatalf("want both successes and fast-fails: ok=%d overloaded=%d", ok.Load(), overloaded.Load())
	}
	if s.front.metrics.overloaded.Load() != overloaded.Load() {
		t.Errorf("metrics disagree: %d vs %d", s.front.metrics.overloaded.Load(), overloaded.Load())
	}
}

// TestFsckMountPolicy leaves a crash artifact via fault injection (a
// failed atomic rename whose cleanup also fails, stranding a .spio-tmp
// file) and checks the refuse/warn/off policies.
func TestFsckMountPolicy(t *testing.T) {
	dir := t.TempDir()
	writeDataset(t, dir, geom.I3(2, 1, 1), geom.I3(1, 1, 1), 60)

	// Re-checkpoint into the same directory with an injected crash: the
	// data file's rename fails and so does the temp cleanup, modelling a
	// writer that died mid-publish.
	in := fault.NewInjector()
	in.Add(fault.AllRanks, fault.Fault{Op: fault.OpRename, Path: ".spd"})
	// Model a hard crash: once the publish fails, no cleanup runs either,
	// so the abort path can neither reap the temp nor unpublish the old
	// (still consistent) dataset.
	in.Add(fault.AllRanks, fault.Fault{Op: fault.OpRemove})
	cfg := core.WriteConfig{
		Agg:  agg.Config{Domain: geom.UnitBox(), SimDims: geom.I3(2, 1, 1), Factor: geom.I3(1, 1, 1)},
		Seed: 21,
	}
	grid := geom.NewGrid(cfg.Agg.Domain, geom.I3(2, 1, 1))
	err := mpi.Run(2, func(c *mpi.Comm) error {
		cfg := cfg
		cfg.FS = in.FS(c.Rank())
		local := particle.Uniform(particle.Uintah(), grid.CellBox(geom.Unlinear(c.Rank(), geom.I3(2, 1, 1))), 60, 13, c.Rank())
		_, err := core.Write(c, dir, cfg, local)
		return err
	})
	if err == nil {
		t.Fatal("injected write unexpectedly succeeded")
	}
	leftovers, err := filepath.Glob(filepath.Join(dir, "*.spio-tmp"))
	if err != nil || len(leftovers) == 0 {
		t.Fatalf("no leftover temp file after injected crash (%v)", err)
	}

	// Default policy refuses the dataset.
	if err := New(Config{}).Mount("sim", dir); err == nil {
		t.Fatal("mount of a dirty dataset succeeded under the refuse policy")
	}

	// Warn serves it (the canonical files are still consistent).
	var warned atomic.Int64
	s := New(Config{Fsck: FsckWarn, Logf: func(string, ...any) { warned.Add(1) }})
	if err := s.Mount("sim", dir); err != nil {
		t.Fatalf("warn-policy mount: %v", err)
	}
	if warned.Load() == 0 {
		t.Error("warn policy logged nothing")
	}
	addr := startServer(t, s)
	ds, err := OpenRemote(addr, "sim")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if _, _, err := ds.QueryBox(ds.Meta().Domain, rdr.Options{}); err != nil {
		t.Fatalf("query against warn-mounted dataset: %v", err)
	}

	// Off skips the check entirely.
	if err := New(Config{Fsck: FsckOff}).Mount("sim", dir); err != nil {
		t.Fatalf("off-policy mount: %v", err)
	}
}

// TestSeriesMountAndLatest mounts a step-series base and resolves
// name, name@N, and name@latest.
func TestSeriesMountAndLatest(t *testing.T) {
	base := t.TempDir()
	writeDataset(t, base+"/t000000", geom.I3(2, 1, 1), geom.I3(1, 1, 1), 40)
	writeDataset(t, base+"/t000003", geom.I3(2, 1, 1), geom.I3(1, 1, 1), 70) // gap: steps 1, 2 absent

	s := New(Config{})
	if err := s.Mount("sim", base); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, s)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	oldest, err := c.Open("sim@0")
	if err != nil {
		t.Fatal(err)
	}
	latest, err := c.Open("sim@latest")
	if err != nil {
		t.Fatal(err)
	}
	bare, err := c.Open("sim")
	if err != nil {
		t.Fatal(err)
	}
	if oldest.Meta().Total != 80 {
		t.Errorf("sim@0 holds %d particles, want 80", oldest.Meta().Total)
	}
	if latest.Meta().Total != 140 || bare.Meta().Total != 140 {
		t.Errorf("latest resolution: %d / %d particles, want 140", latest.Meta().Total, bare.Meta().Total)
	}
	if _, err := c.Open("sim@1"); err == nil {
		t.Error("gap step sim@1 resolved")
	}
	refs, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 2 || refs[0] != "sim@0" || refs[1] != "sim@3" {
		t.Errorf("List = %v", refs)
	}
}

// TestSeriesMountHoldsBoundedSteps: however many steps of a series are
// asked for, the mount holds mountSteps of them — datasets and
// descriptors — an evicted step answers again, and racing first requests
// for a cold step open and check it once.
func TestSeriesMountHoldsBoundedSteps(t *testing.T) {
	const steps, filesPerStep = mountSteps + 4, 2
	base := t.TempDir()
	for i := 0; i < steps; i++ {
		writeDataset(t, rdr.StepDir(base, i), geom.I3(2, 1, 1), geom.I3(1, 1, 1), 20+i)
	}
	// Step 1 holds a leftover temp file: every check of it under the warn
	// policy logs that one problem.
	if err := os.WriteFile(filepath.Join(rdr.StepDir(base, 1), "x"+format.TempSuffix), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			return 0 // not Linux: the descriptor bound goes unchecked
		}
		return len(ents)
	}
	fdsBefore := fds()
	var checks atomic.Int64
	s := New(Config{Fsck: FsckWarn, Logf: func(f string, _ ...any) {
		if strings.Contains(f, "fsck") {
			checks.Add(1)
		}
	}})
	if err := s.Mount("sim", base); err != nil {
		t.Fatal(err)
	}
	query := func(step int) {
		t.Helper()
		ds, err := s.Resolve(fmt.Sprintf("sim@%d", step))
		if err != nil {
			t.Fatal(err)
		}
		a, err := ds.Answer(&rdr.Request{Op: rdr.OpQueryBox, Box: geom.UnitBox()})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Release()
		if want := filesPerStep * (20 + step); a.Rows.Len() != want {
			t.Fatalf("step %d answered %d particles, want %d", step, a.Rows.Len(), want)
		}
	}
	for step := 2; step < steps; step++ {
		query(step)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Resolve("sim@1"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := checks.Load(); n != 1 {
		t.Errorf("8 racing first requests for a cold step logged its one fsck problem %d times", n)
	}
	query(1)
	query(0)
	query(2) // evicted long ago
	if n := len(s.Snapshot().Datasets); n > mountSteps {
		t.Errorf("the mount holds %d steps open, bound %d", n, mountSteps)
	}
	if open := fds() - fdsBefore; open > mountSteps*filesPerStep+4 {
		t.Errorf("%d descriptors open after %d steps, want at most %d steps' worth", open, steps, mountSteps)
	}
}

// TestBudgetFastFail: a query whose response exceeds the per-request
// byte budget is refused without materializing on the wire.
func TestBudgetFastFail(t *testing.T) {
	dir := t.TempDir()
	writeDataset(t, dir, geom.I3(2, 1, 1), geom.I3(1, 1, 1), 200)
	s := New(Config{MaxRespBytes: 4096})
	if err := s.Mount("sim", dir); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, s)
	ds, err := OpenRemote(addr, "sim")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if _, _, err := ds.QueryBox(ds.Meta().Domain, rdr.Options{}); !errors.Is(err, ErrBudget) {
		t.Fatalf("oversized query: %v, want ErrBudget", err)
	}
	// A level-limited read fits.
	if _, _, err := ds.QueryBox(ds.Meta().Domain, rdr.Options{Levels: 1}); err != nil {
		t.Fatalf("level-limited query: %v", err)
	}
	// A level of a stream is an answer like any other: the first to outgrow
	// the budget is refused; those before it are the valid coarse prefix.
	st, err := ds.ProgressiveBox(ds.Meta().Domain, 0, 1)
	for err == nil && !st.Done() {
		_, _, err = st.NextLevel()
	}
	if !errors.Is(err, ErrBudget) || st.Level() == 0 || st.Done() {
		t.Fatalf("stream over the budget: %v after %d levels (done=%v), want ErrBudget after some", err, st.Level(), st.Done())
	}
}

// TestClientMaxFrameOption pins the client-side frame cap: a response
// larger than the dialed cap is refused by the client before it
// allocates the body, and the default cap admits normal traffic. The
// cap is the client's guard against a garbage or hostile length prefix
// — the server-side byte budget cannot protect a client talking to a
// compromised or corrupt peer.
func TestClientMaxFrameOption(t *testing.T) {
	dir := t.TempDir()
	writeDataset(t, dir, geom.I3(2, 1, 1), geom.I3(1, 1, 1), 300)
	s := New(Config{})
	if err := s.Mount("sim", dir); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, s)

	// A cap big enough for the handshake and the meta blob but far
	// smaller than the query payload: the query must fail client-side.
	ds, err := OpenRemote(addr, "sim", WithMaxFrame(4096))
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if _, _, err := ds.QueryBox(ds.Meta().Domain, rdr.Options{}); err == nil {
		t.Fatal("response over the client frame cap accepted")
	} else if !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("capped query failed with %v, want a frame-limit error", err)
	}

	// The default cap admits the same query.
	ds2, err := OpenRemote(addr, "sim")
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	if _, _, err := ds2.QueryBox(ds2.Meta().Domain, rdr.Options{}); err != nil {
		t.Fatalf("default-cap query: %v", err)
	}
}

// TestStatsSurface checks the metrics snapshot over the wire: request
// counters, block cache counters, and the per-dataset file-cache
// counters (the satellite eviction / bytes-from-cache extensions).
func TestStatsSurface(t *testing.T) {
	dir := t.TempDir()
	writeDataset(t, dir, geom.I3(2, 2, 1), geom.I3(2, 2, 1), 100)
	s := New(Config{})
	if err := s.Mount("sim", dir); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, s)
	ds, err := OpenRemote(addr, "sim")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	for i := 0; i < 3; i++ {
		if _, _, err := ds.QueryBox(ds.Meta().Domain, rdr.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	// Per-request stats show the server-side file cache working.
	_, st, err := ds.QueryBox(ds.Meta().Domain, rdr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits == 0 || st.BytesFromCache == 0 {
		t.Errorf("repeat remote query reported no cache reuse: %+v", st)
	}

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	blob, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatalf("stats JSON: %v\n%s", err, blob)
	}
	if snap.Requests < 4 {
		t.Errorf("snapshot requests = %d", snap.Requests)
	}
	if snap.BlockCache.Misses == 0 {
		t.Errorf("block cache uninvolved: %+v", snap.BlockCache)
	}
	dm, ok := snap.Datasets["sim"]
	if !ok {
		t.Fatalf("snapshot lacks dataset entry: %v", snap.Datasets)
	}
	if dm.FileCache.Hits == 0 || dm.FileCache.BytesFromCache == 0 {
		t.Errorf("dataset file-cache counters empty: %+v", dm.FileCache)
	}
	if snap.QueueWaitNs < 0 || snap.ServiceNs == 0 {
		t.Errorf("timing counters: wait=%d service=%d", snap.QueueWaitNs, snap.ServiceNs)
	}
}
