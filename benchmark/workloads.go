package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"spio"
)

// Work per run. Runs measure fixed work, not fixed time: a pass is a
// fixed list of ops, every pass of a workload is the same list, and the
// pass counts below are what a run does at the reference length of
// refSeconds (-seconds scales them in proportion). They are sized so
// that each measured phase lasts about refSeconds on the two-core
// reference box. Because the passes are identical work, the run reports
// its fastest pass: interference from the host only ever slows a pass
// down, and many short passes give the run many chances at a quiet one.
const (
	refSeconds  = 20
	setupReps   = 3 // set-ups per run; setup_s is their median
	writePasses = 20
	writeCycle  = 4 // pre-generated timesteps; a pass writes each once
	writeWarmup = 3 // warm-up steps per set-up
)

var serveSpecs = []serveSpec{
	{name: "serve_hot", passes: 16, opsPerPass: 160},
	{name: "serve_cold", lossless: true, cacheDiv: 10, passes: 10, opsPerPass: 60},
	{name: "gateway3", shards: 3, passes: 12, opsPerPass: 160},
}

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"write_ckpt", "serve_hot", "serve_cold", "gateway3"}

// runCtx is what every workload of one process shares.
type runCtx struct {
	opts options
	data *dataset // timestep 0, generated from the seed
	tr   *tracer  // nil unless -trace 1
	ref  *speedRef
	logf func(string, ...any)
}

// scaled converts a count at the reference run length to this run's.
func (rc *runCtx) scaled(n int) int {
	if rc.opts.tiny() {
		return 1
	}
	return max(2, int(math.Round(float64(n)*float64(rc.opts.seconds)/refSeconds)))
}

func (rc *runCtx) setups() int {
	if rc.opts.tiny() || rc.opts.trace {
		return 1
	}
	return setupReps
}

// report is what one workload measured.
type report struct {
	attempted int
	failed    int
	problems  []string    // broken invariants: the run is not correct
	budget    []string    // failed budget sum checks of the traced run
	setups    []float64   // seconds, one per set-up
	rates     []float64   // ops/s, one per pass
	mbRates   []float64   // user MB/s, one per pass
	primary   [][]float64 // primary-op latencies in ms, one row per pass, in schedule order
	latency   []float64   // the sample op_p50_ms and op_p90_ms are taken over
	ops       int         // ops in the measured phase
	measured  time.Duration
	allocMB   float64 // TotalAlloc over the measured phase
	stored    float64 // dataset bytes on disk per user byte
	layer     map[string]float64
}

// bestPass is the index of the fastest pass.
func (r *report) bestPass() int {
	best := 0
	for p, rate := range r.rates {
		if rate > r.rates[best] {
			best = p
		}
	}
	return best
}

func (r *report) endToEnd() map[string]float64 {
	best := r.bestPass()
	return map[string]float64{
		"setup_s":                    median(r.setups),
		"ops_per_s":                  r.rates[best],
		"user_mb_per_s":              r.mbRates[best],
		"op_p50_ms":                  quantile(r.latency, 0.5),
		"op_p90_ms":                  quantile(r.latency, 0.9),
		"alloc_mb_per_op":            ratio(r.allocMB, float64(r.ops)),
		"stored_bytes_per_user_byte": r.stored,
	}
}

func (rc *runCtx) runWorkload(name string) (*report, error) {
	if name == "write_ckpt" {
		return rc.runWrite()
	}
	for _, s := range serveSpecs {
		if s.name == name {
			return rc.runServe(s)
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// ---- serving workloads ----

func (rc *runCtx) runServe(spec serveSpec) (*report, error) {
	rep := &report{layer: map[string]float64{}}
	ops := buildSchedule(spec.opsPerPass, rc.data)

	// Set-up, timed: dataset write, split, mount (fsck), serve, dial and
	// one warm-up pass. Repeated from scratch; the last one is kept.
	var env *serveEnv
	var warm passResult
	for i := 0; i < rc.setups(); i++ {
		if env != nil {
			if err := env.close(); err != nil {
				return nil, err
			}
		}
		dir := fmt.Sprintf("%s-%d", spec.name, i)
		t0 := time.Now()
		var err error
		if env, err = bringUp(spec, rc.data, dir, rc.opts.seed); err != nil {
			if env != nil {
				_ = env.close() // already failing: the first error is the one reported
			}
			return nil, err
		}
		warm = env.runPass(ops, nil, -1, true, rc.logf)
		rep.setups = append(rep.setups, time.Since(t0).Seconds())
	}
	defer func() { _ = env.close() }() // files are scratch; a close error changes no result

	// Verification of the warm-up answers, untimed.
	failed, err := verifyPass(rc.data, env.dataDir, ops, &warm, rc.logf)
	if err != nil {
		return nil, err
	}
	rep.attempted += len(ops)
	rep.failed += failed
	warm = passResult{}

	// Measured phase.
	passes := rc.scaled(spec.passes)
	var all []opSample
	var userBytes int64
	var tracedRates, plainRates []float64
	before, err := env.counters()
	if err != nil {
		return nil, err
	}
	p0 := markProc()
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		rc.ref.sample()
		tr := rc.tr
		if p%2 == 0 {
			tr = nil // traced runs alternate plain and traced passes
		}
		res := env.runPass(ops, tr, p, false, rc.logf)
		rate := float64(len(ops)) / res.wall.Seconds()
		rep.rates = append(rep.rates, rate)
		rep.mbRates = append(rep.mbRates, float64(res.userBytes)/1e6/res.wall.Seconds())
		if tr != nil {
			tracedRates = append(tracedRates, rate)
		} else {
			plainRates = append(plainRates, rate)
		}
		all = append(all, res.samples...)
		userBytes += res.userBytes
		rep.failed += res.failed
		var row []float64
		for _, s := range res.samples {
			if s.kind == kindBox {
				row = append(row, ms(s.ns))
			}
		}
		rep.primary = append(rep.primary, row)
	}
	rep.measured = time.Since(t0)
	p1 := markProc()
	after, err := env.counters()
	if err != nil {
		return nil, err
	}
	rep.ops = passes * len(ops)
	rep.attempted += rep.ops
	rep.allocMB = float64(p1.alloc-p0.alloc) / 1e6
	rep.stored = float64(env.stored) / float64(rc.data.userBytes())
	// Every pass asks the same box queries, so each query has one
	// latency per pass; the percentiles are over the queries' best.
	rep.latency = columnMins(rep.primary)
	if ev := after.fileEvict - before.fileEvict; ev != 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("file cache evicted %d handles on a measured path", ev))
	}
	if !rc.opts.trace {
		return rep, nil
	}

	// Per-layer metrics of the measured phase.
	serveLayerMetrics(rep.layer, before, after, all, userBytes)
	rc.processMetrics(rep, p0, p1, plainRates, tracedRates)
	rep.budget = append(rep.budget, checkLatencyBudget(rep.layer)...)
	return rep, nil
}

// serveLayerMetrics turns the counter deltas and client samples of a
// serving phase into the serving-side per-layer metrics. With several
// spiods behind a gateway the server figures are sums over the backends
// per front op.
func serveLayerMetrics(L map[string]float64, before, after counters, samples []opSample, userBytes int64) {
	byKind := make([][]float64, numKinds)
	var firstLevel []float64
	var clientNs int64
	for _, s := range samples {
		byKind[s.kind] = append(byKind[s.kind], ms(s.ns))
		clientNs += s.ns
		if s.kind == kindStream {
			firstLevel = append(firstLevel, ms(s.firstLevel))
		}
	}
	nOps, ub := float64(len(samples)), float64(userBytes)
	d := func(a, b int64) float64 { return float64(a - b) }
	L["query.knn_p50_ms"] = median(byKind[kindKNN])
	L["query.halo_p50_ms"] = median(byKind[kindHalo])
	L["query.density_p50_ms"] = median(byKind[kindDensity])
	service := d(after.srv.ServiceNs, before.srv.ServiceNs) / nOps / 1e6
	queue := d(after.srv.QueueWaitNs, before.srv.QueueWaitNs) / nOps / 1e6
	L["harness.client_ms_per_op"] = float64(clientNs) / nOps / 1e6
	L["server.service_ms_per_op"] = service
	L["server.queue_wait_ms_per_op"] = queue
	L["server.client_residual_ms_per_op"] = L["harness.client_ms_per_op"] - service - queue
	L["server.wire_bytes_per_user_byte"] = d(after.wireOut, before.wireOut) / ub
	bh, bm := d(after.srv.BlockCache.Hits, before.srv.BlockCache.Hits), d(after.srv.BlockCache.Misses, before.srv.BlockCache.Misses)
	dh, dm := d(after.srv.DecodedCache.Hits, before.srv.DecodedCache.Hits), d(after.srv.DecodedCache.Misses, before.srv.DecodedCache.Misses)
	fh, fm := d(after.fileHits, before.fileHits), d(after.fileMisses, before.fileMisses)
	L["server.block_cache_hit_ratio"] = ratio(bh, bh+bm)
	L["server.block_cache_evictions_per_op"] = d(after.srv.BlockCache.Evictions, before.srv.BlockCache.Evictions) / nOps
	L["server.decoded_cache_hit_ratio"] = ratio(dh, dh+dm)
	L["server.file_cache_hit_ratio"] = ratio(fh, fh+fm)
	L["server.disk_bytes_per_user_byte"] = d(after.srv.BlockCache.BytesFromDisk, before.srv.BlockCache.BytesFromDisk) / ub
	L["server.stream_first_level_ms"] = median(firstLevel)
	L["server.stream_4_levels_ms"] = median(byKind[kindStream])
	L["server.overloaded"] = d(after.srv.Overloaded, before.srv.Overloaded)
	L["server.errors"] = d(after.srv.Errors, before.srv.Errors)
	L["gateway.fanout_per_op"] = d(after.gw.Fanout, before.gw.Fanout) / nOps
	L["gateway.backend_service_ms_per_op"] = service
	L["gateway.partials"] = d(after.gw.Partials, before.gw.Partials)
	L["gateway.shard_errors"] = d(after.gw.ShardErrors, before.gw.ShardErrors)
	L["gateway.breaker_skips"] = d(after.gw.BreakerSkips, before.gw.BreakerSkips)
}

// checkLatencyBudget checks that what the servers report fits inside
// what the clients saw: service time plus queue wait may not exceed the
// client's mean latency by more than 5 %.
func checkLatencyBudget(L map[string]float64) []string {
	client := L["harness.client_ms_per_op"]
	if L["server.client_residual_ms_per_op"] < -0.05*client {
		return []string{fmt.Sprintf("server service %.3f ms + queue wait %.3f ms exceed the client's mean latency %.3f ms by more than 5 %%",
			L["server.service_ms_per_op"], L["server.queue_wait_ms_per_op"], client)}
	}
	return nil
}

// processMetrics fills in the whole-process per-layer metrics and the
// tracing overhead, and checks the overhead against its budget.
func (rc *runCtx) processMetrics(rep *report, p0, p1 procMark, plain, traced []float64) {
	nOps := float64(rep.ops)
	rep.layer["process.cpu_ms_per_op"] = float64(p1.cpu-p0.cpu) / 1e6 / nOps
	rep.layer["process.gc_cycles_per_op"] = float64(p1.gcs-p0.gcs) / nOps
	rep.layer["process.peak_rss_mb"] = peakRSSMB()
	// What the end-to-end metrics would read without picking the best
	// pass and the best latency: the distance to them is how much of
	// the run was disturbed, by the host or by the program itself.
	var pooled []float64
	for _, row := range rep.primary {
		pooled = append(pooled, row...)
	}
	rep.layer["harness.median_pass_ops_per_s"] = median(rep.rates)
	rep.layer["harness.pooled_op_p50_ms"] = quantile(pooled, 0.5)
	rep.layer["harness.pooled_op_p90_ms"] = quantile(pooled, 0.9)
	over := 0.0
	if len(plain) > 0 && len(traced) > 0 {
		over = 1 - median(traced)/median(plain)
	}
	rep.layer["harness.trace_overhead_frac"] = over
	if over > 0.05 {
		rep.budget = append(rep.budget, fmt.Sprintf("tracing overhead %.3f exceeds 0.05 of ops_per_s", over))
	}
}

// ---- write_ckpt ----

// stepTiming is one write step reduced to the paper's phases: each is
// the maximum over the ranks, because the slowest rank ends the step.
type stepTiming struct {
	exchange, reorder, fileIO, metaIO, total time.Duration
	exchangeBytes                            int64
}

func (ws writeStep) timing() stepTiming {
	var t stepTiming
	for _, r := range ws.results {
		t.exchange = max(t.exchange, r.Timing.MetadataExchange+r.Timing.ParticleExchange)
		t.reorder = max(t.reorder, r.Timing.Reorder)
		t.fileIO = max(t.fileIO, r.Timing.FileIO)
		t.metaIO = max(t.metaIO, r.Timing.MetaIO)
		t.total = max(t.total, r.Timing.Total())
		t.exchangeBytes += r.Timing.ExchangeBytes
	}
	return t
}

// writeLayerMetrics turns the timings of some write steps into the
// write-side per-layer metrics.
func writeLayerMetrics(L map[string]float64, steps []writeStep, userBytes int64) {
	var exch, reord, fio, mio, wall, unattr []float64
	var xbytes int64
	for _, s := range steps {
		t := s.timing()
		exch = append(exch, ms(int64(t.exchange)))
		reord = append(reord, ms(int64(t.reorder)))
		fio = append(fio, ms(int64(t.fileIO)))
		mio = append(mio, ms(int64(t.metaIO)))
		wall = append(wall, ms(int64(s.wall)))
		unattr = append(unattr, 1-float64(t.total)/float64(s.wall))
		xbytes += t.exchangeBytes
	}
	L["agg.exchange_ms_per_step"] = mean(exch)
	L["agg.exchange_bytes_per_user_byte"] = float64(xbytes) / float64(int64(len(steps))*userBytes)
	L["lod.reorder_ms_per_step"] = mean(reord)
	L["format.file_io_ms_per_step"] = mean(fio)
	L["format.meta_io_ms_per_step"] = mean(mio)
	L["core.write_ms_per_step"] = mean(wall)
	L["core.unattributed_frac"] = mean(unattr)
}

func (rc *runCtx) runWrite() (*report, error) {
	rep := &report{layer: map[string]float64{}}
	codec := spio.LosslessCodec(rc.data.schema)
	// The timesteps are generated up front: harness time.
	timesteps := []*dataset{rc.data}
	for len(timesteps) < writeCycle {
		timesteps = append(timesteps, timesteps[len(timesteps)-1].advected())
	}
	base := "write_ckpt"
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	warmup, passes := writeWarmup, rc.scaled(writePasses)
	if rc.opts.tiny() {
		warmup = 1
	}
	// step writes timestep n into its own directory and, unless keep,
	// removes it again outside the step's timer.
	step := func(n int, tr *tracer, keep bool) (writeStep, string, error) {
		dir := spio.StepDir(base, n)
		root := tr.begin("op.write_step", -1, n)
		ws, err := timesteps[n%writeCycle].write(dir, codec, rc.opts.seed, tr, root)
		tr.end(root)
		rep.attempted++
		if err == nil {
			var particles int64
			for _, r := range ws.results {
				particles += r.FileParticles
			}
			if particles != rc.data.particles() {
				err = fmt.Errorf("wrote %d particles, want %d", particles, rc.data.particles())
			}
		}
		if err != nil {
			rep.failed++
			rc.logf("write_ckpt step %d: %v", n, err)
		}
		if keep {
			return ws, dir, nil
		}
		return ws, dir, os.RemoveAll(dir)
	}

	n := 0
	for i := 0; i < rc.setups(); i++ {
		t0 := time.Now()
		for w := 0; w < warmup; w++ {
			if _, _, err := step(n, nil, false); err != nil {
				return nil, err
			}
			n++
		}
		rep.setups = append(rep.setups, time.Since(t0).Seconds())
	}

	// A pass writes the writeCycle timesteps once each; its time is the
	// sum of its steps'. No collection is forced between passes: at 90 MB
	// allocated per step over a 600 MB heap the collector runs every
	// seven steps or so, inside the timers like the rest of the step.
	var measured []writeStep
	var tracedRates, plainRates []float64
	var lastDir string
	userMB := float64(rc.data.userBytes()) / 1e6
	runtime.GC()
	p0 := markProc()
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		rc.ref.sample()
		tr := rc.tr
		if p%2 == 0 {
			tr = nil // traced runs alternate plain and traced passes
		}
		var row []float64
		var wall time.Duration
		for s := 0; s < writeCycle; s++ {
			ws, dir, err := step(n, tr, p == passes-1 && s == writeCycle-1)
			if err != nil {
				return nil, err
			}
			n++
			lastDir = dir
			measured = append(measured, ws)
			wall += ws.wall
			row = append(row, ms(int64(ws.wall)))
		}
		rate := writeCycle / wall.Seconds()
		if tr != nil {
			tracedRates = append(tracedRates, rate)
		} else {
			plainRates = append(plainRates, rate)
		}
		rep.rates = append(rep.rates, rate)
		rep.mbRates = append(rep.mbRates, writeCycle*userMB/wall.Seconds())
		rep.primary = append(rep.primary, row)
	}
	rep.measured = time.Since(t0)
	p1 := markProc()
	rep.ops = passes * writeCycle
	rep.allocMB = float64(p1.alloc-p0.alloc) / 1e6
	// The primary ops of a pass are its four timesteps; as on the serving
	// workloads the percentiles are over the ops' best latencies.
	rep.latency = columnMins(rep.primary)

	// The last step stays on disk: its size is the stored-bytes metric
	// and it is read back in full and compared with what was written.
	stored, err := dirBytes(lastDir)
	if err != nil {
		return nil, err
	}
	rep.stored = float64(stored) / float64(rc.data.userBytes())
	rep.attempted++
	if err := readBack(lastDir, timesteps[(n-1)%writeCycle]); err != nil {
		rep.failed++
		rc.logf("write_ckpt read-back of the last step: %v", err)
	}
	if rc.opts.trace {
		writeLayerMetrics(rep.layer, measured, rc.data.userBytes())
		rc.processMetrics(rep, p0, p1, plainRates, tracedRates)
		if u := rep.layer["core.unattributed_frac"]; u > 0.10 {
			rep.budget = append(rep.budget, fmt.Sprintf("core.unattributed_frac %.3f exceeds 0.10: the write phases do not add up to the step", u))
		}
	}
	return rep, nil
}

// readBack checks a written dataset: fsck with checksums and the deep
// spatial check, then every particle against the in-memory input.
func readBack(dir string, want *dataset) error {
	ds, err := spio.Open(dir)
	if err != nil {
		return err
	}
	defer ds.Close()
	if probs := ds.Fsck(spio.FsckOptions{Checksums: true, Deep: true}); len(probs) > 0 {
		return fmt.Errorf("fsck: %d problems, first: %v", len(probs), probs[0])
	}
	got, _, err := ds.ReadAll(spio.QueryOptions{})
	if err != nil {
		return err
	}
	if got.Len() != want.all.Len() {
		return fmt.Errorf("read %d particles, wrote %d", got.Len(), want.all.Len())
	}
	o := oracle{d: want, idField: want.schema.FieldIndex("id")}
	// want.all is in id order already.
	if !bytes.Equal(o.canonical(got), want.all.Encode()) {
		return fmt.Errorf("particles read back differ from the particles written")
	}
	return nil
}

// workDir makes the run's scratch directory under base and returns it.
func workDir(base string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}
