// Command benchmark is the repository's performance benchmark: four
// fixed-work workloads over a 65 MB particle dataset, seven end-to-end
// metrics each, and, with -trace 1, per-layer metrics taken from outside
// the program. See README.md in this directory and ../BENCHMARK.json.
//
//	go run . -workload serve_hot -seed 1             (from this directory)
//	go run . -workload all -seed 1 -trace 1 -out result.json
//
// The last line of standard output is the result of the (last) workload
// as one JSON object with the keys correct, attempted, failed and
// metrics; everything else goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEndDefs and perLayerDefs name every metric the benchmark prints;
// BENCHMARK.json lists the same names (smoke_test.go compares them).
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"user_mb_per_s", "MB/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"stored_bytes_per_user_byte", "ratio"},
}

var perLayerDefs = []metricDef{
	{"particle.lossless_encode_mb_per_s", "MB/s"},
	{"particle.lossless_decode_mb_per_s", "MB/s"},
	{"particle.lossless_ratio", "ratio"},
	{"particle.fast_encode_mb_per_s", "MB/s"},
	{"particle.fast_decode_mb_per_s", "MB/s"},
	{"particle.fast_ratio", "ratio"},
	{"agg.exchange_ms_per_step", "ms"},
	{"agg.exchange_bytes_per_user_byte", "ratio"},
	{"lod.reorder_ms_per_step", "ms"},
	{"lod.reorder_mparticles_per_s", "M/s"},
	{"format.file_io_ms_per_step", "ms"},
	{"format.meta_io_ms_per_step", "ms"},
	{"format.open_us", "us"},
	{"format.read_range_raw_mb_per_s", "MB/s"},
	{"format.read_range_lossless_mb_per_s", "MB/s"},
	{"core.write_ms_per_step", "ms"},
	{"core.unattributed_frac", "ratio"},
	{"reader.box_ms", "ms"},
	{"reader.files_opened_per_op", "count"},
	{"reader.bytes_read_per_kept_byte", "ratio"},
	{"reader.particles_read_per_kept", "ratio"},
	{"query.knn_p50_ms", "ms"},
	{"query.halo_p50_ms", "ms"},
	{"query.density_p50_ms", "ms"},
	{"server.service_ms_per_op", "ms"},
	{"server.queue_wait_ms_per_op", "ms"},
	{"server.client_residual_ms_per_op", "ms"},
	{"server.wire_codec_ms_per_op", "ms"},
	{"server.wire_bytes_per_user_byte", "ratio"},
	{"server.block_cache_hit_ratio", "ratio"},
	{"server.block_cache_evictions_per_op", "count"},
	{"server.decoded_cache_hit_ratio", "ratio"},
	{"server.file_cache_hit_ratio", "ratio"},
	{"server.disk_bytes_per_user_byte", "ratio"},
	{"server.stream_first_level_ms", "ms"},
	{"server.stream_4_levels_ms", "ms"},
	{"server.overloaded", "count"},
	{"server.errors", "count"},
	{"gateway.fanout_per_op", "count"},
	{"gateway.backend_service_ms_per_op", "ms"},
	{"gateway.overhead_ms_per_op", "ms"},
	{"gateway.partials", "count"},
	{"gateway.shard_errors", "count"},
	{"gateway.breaker_skips", "count"},
	{"process.cpu_ms_per_op", "ms"},
	{"process.gc_cycles_per_op", "count"},
	{"process.peak_rss_mb", "MB"},
	{"harness.client_ms_per_op", "ms"},
	{"harness.median_pass_ops_per_s", "1/s"},
	{"harness.pooled_op_p50_ms", "ms"},
	{"harness.pooled_op_p90_ms", "ms"},
	{"harness.trace_overhead_frac", "ratio"},
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string
	out      string
	scale    string // "full" or "tiny"
}

func (o options) tiny() bool { return o.scale == "tiny" }

// metric is one value in the printed result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp identifies the run: metadata, not metrics.
type stamp struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Scale      string  `json:"scale"`
	Trace      bool    `json:"trace"`
	SpeedRef   float64 `json:"speed_ref_mb_per_s"`
}

// document is what -out writes: every workload's result with the stamp
// and the sample counts behind the percentiles.
type document struct {
	Stamp     stamp               `json:"stamp"`
	Workloads map[string]docEntry `json:"workloads"`
}

type docEntry struct {
	result
	MeasuredS      float64     `json:"measured_s"`
	PassRates      []float64   `json:"pass_ops_per_s"`
	PrimaryMs      [][]float64 `json:"primary_op_ms"` // one row per pass
	LatencySamples int         `json:"latency_samples"`
	Problems       []string    `json:"problems,omitempty"`
	BudgetFailures []string    `json:"budget_failures,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "all", "write_ckpt, serve_hot, serve_cold, gateway3 or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the particles and the op schedule")
	fs.IntVar(&o.seconds, "seconds", refSeconds, "run length the fixed work is scaled to")
	fs.IntVar(&trace, "trace", 0, "1: traced run, prints the per-layer metrics and writes trace.json")
	fs.StringVar(&o.dir, "dir", ".bench_build/spio-bench", "directory for datasets, sockets and trace.json")
	fs.StringVar(&o.out, "out", "", "also write the full result document to this file")
	fs.StringVar(&o.scale, "scale", "full", "full, or tiny for the smoke test (its numbers are not results)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if fs.NArg() > 0 || trace < 0 || trace > 1 || o.seconds < 1 || (o.scale != "full" && o.scale != "tiny") {
		fmt.Fprintln(stderr, "benchmark: bad arguments")
		fs.Usage()
		return 2
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames
	} else if !slices.Contains(workloadNames, o.workload) {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", o.workload)
		return 2
	}
	if err := benchmark(o, names, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

func benchmark(o options, names []string, stdout, stderr io.Writer) error {
	commit := gitCommit() // before the working directory changes
	outPath := o.out
	if outPath != "" {
		var err error
		if outPath, err = filepath.Abs(outPath); err != nil {
			return err
		}
	}
	base, err := filepath.Abs(o.dir)
	if err != nil {
		return err
	}
	work, err := workDir(base)
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	// Everything below uses short relative paths: a unix socket path
	// holds about 100 bytes and the checkout may sit anywhere.
	prev, err := os.Getwd()
	if err != nil {
		return err
	}
	if err := os.Chdir(work); err != nil {
		return err
	}
	defer func() { _ = os.Chdir(prev) }() // leaving a directory about to be removed

	perRank := fullPerRank
	if o.tiny() {
		perRank = tinyPerRank
	}
	rc := &runCtx{
		opts: o,
		data: generate(o.seed, perRank),
		ref:  newSpeedRef(),
		logf: func(f string, a ...any) { fmt.Fprintf(stderr, f+"\n", a...) },
	}
	if o.trace {
		rc.tr = newTracer()
	}
	doc := document{Workloads: map[string]docEntry{}}
	var lines []result
	for _, name := range names {
		t0 := time.Now()
		rep, err := rc.runWorkload(name)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		defs, values := endToEndDefs, rep.endToEnd()
		if o.trace {
			if err := rc.layerStage(rep); err != nil {
				return fmt.Errorf("%s: layer stage: %w", name, err)
			}
			defs, values = perLayerDefs, rep.layer
		}
		res := result{
			Correct:   rep.failed == 0 && len(rep.problems) == 0,
			Attempted: rep.attempted,
			Failed:    rep.failed,
			Metrics:   map[string]metric{},
		}
		for _, d := range defs {
			v, ok := values[d.name]
			if !ok {
				return fmt.Errorf("%s: metric %s was not measured", name, d.name)
			}
			res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		}
		lines = append(lines, res)
		doc.Workloads[name] = docEntry{
			result:         res,
			MeasuredS:      rep.measured.Seconds(),
			PassRates:      rep.rates,
			PrimaryMs:      rep.primary,
			LatencySamples: len(rep.latency),
			Problems:       rep.problems,
			BudgetFailures: rep.budget,
		}
		printReport(stderr, name, rep, res, defs, time.Since(t0))
	}
	doc.Stamp = stamp{
		Commit: commit, Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: o.seed, Seconds: o.seconds, Scale: o.scale,
		Trace: o.trace, SpeedRef: median(rc.ref.mbps),
	}
	blob, err := json.Marshal(doc.Stamp)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "stamp %s\n", blob)
	if rc.tr != nil {
		if err := rc.tr.writeFile(filepath.Join(base, "trace.json")); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote %d spans to %s\n", len(rc.tr.spans), filepath.Join(base, "trace.json"))
	}
	if outPath != "" {
		blob, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
	}
	for _, res := range lines {
		blob, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", blob)
	}
	return nil
}

// printReport prints one workload's numbers for a person to read.
func printReport(w io.Writer, name string, rep *report, res result, defs []metricDef, took time.Duration) {
	fmt.Fprintf(w, "== %s: correct=%v attempted=%d failed=%d measured=%.1fs passes=%d latency samples=%d wall=%.1fs\n",
		name, res.Correct, res.Attempted, res.Failed, rep.measured.Seconds(), len(rep.rates), len(rep.latency), took.Seconds())
	for _, d := range defs {
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	if len(rep.setups) > 1 {
		s := append([]float64(nil), rep.setups...)
		sort.Float64s(s)
		fmt.Fprintf(w, "  set-ups (s): %v\n", s)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	for _, b := range rep.budget {
		fmt.Fprintf(w, "  BUDGET CHECK FAILED: %s\n", b)
	}
}

// gitCommit is the checkout's commit, or "unknown" outside a repository.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
