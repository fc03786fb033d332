package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spio/internal/agg"
	"spio/internal/fault"
	"spio/internal/format"
	"spio/internal/geom"
	"spio/internal/mpi"
	"spio/internal/particle"
	"spio/internal/reader"
)

// runWithWatchdog runs a collective under a deadline: if the ranks do
// not all return, the abort protocol has deadlocked and the test fails
// loudly instead of hanging the suite.
func runWithWatchdog(t *testing.T, n int, timeout time.Duration, fn func(c *mpi.Comm) error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- mpi.Run(n, fn) }()
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		t.Fatalf("collective write did not terminate within %v (abort-path deadlock)", timeout)
		return nil
	}
}

// listDatasetFiles returns the names in dir (empty slice if dir is
// missing, which is also a valid post-abort state).
func listDatasetFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestFaultDataWriteAbortsAllRanks is the deadlock regression of the
// error-agreement protocol: one aggregator's data-file write fails
// persistently, and every one of the 8 ranks — including the 6 that
// performed no I/O at all — must observe a non-nil error, promptly, with
// no partial outputs left visible. The same directory must then accept
// a clean write.
func TestFaultDataWriteAbortsAllRanks(t *testing.T) {
	dir := t.TempDir()
	simDims := geom.I3(8, 1, 1)
	cfg := WriteConfig{
		Agg:  agg.Config{Domain: geom.UnitBox(), SimDims: simDims, Factor: geom.I3(4, 1, 1)},
		Seed: 7,
	}
	inj := fault.NewInjector()
	inj.Add(4, fault.Fault{Op: fault.OpWrite, Path: format.DataFileName(4)})

	grid := geom.NewGrid(geom.UnitBox(), simDims)
	errs := make([]error, 8)
	err := runWithWatchdog(t, 8, 60*time.Second, func(c *mpi.Comm) error {
		local := particle.Uniform(particle.Uintah(), grid.CellBox(geom.Unlinear(c.Rank(), simDims)), 40, 5, c.Rank())
		rcfg := cfg
		rcfg.FS = inj.FS(c.Rank())
		_, errs[c.Rank()] = Write(c, dir, rcfg, local)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, werr := range errs {
		if werr == nil {
			t.Errorf("rank %d returned nil from an agreed-failed write", r)
		}
	}
	// The failing rank reports its own cause; the others an agreed
	// summary naming the phase.
	if !errors.Is(errs[4], fault.ErrNoSpace) {
		t.Errorf("rank 4 error %v does not wrap the injected ENOSPC", errs[4])
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "data file write") {
		t.Errorf("bystander rank error %v does not name the failed phase", errs[1])
	}
	if inj.Injected() == 0 {
		t.Fatal("fault was never injected")
	}

	// Fail-stop: no metadata, no data files (aggregator 0's already
	// published file must have been removed by the abort), no temps.
	for _, name := range listDatasetFiles(t, dir) {
		t.Errorf("aborted write left %q visible", name)
	}
	noSegmentsHeld(t)

	// The aborted directory must accept a clean write that reads back.
	err = mpi.Run(8, func(c *mpi.Comm) error {
		local := particle.Uniform(particle.Uintah(), grid.CellBox(geom.Unlinear(c.Rank(), simDims)), 40, 5, c.Rank())
		_, err := Write(c, dir, cfg, local)
		return err
	})
	if err != nil {
		t.Fatalf("clean write after abort: %v", err)
	}
	meta, err := format.ReadMeta(dir)
	if err != nil {
		t.Fatalf("reading back after abort+rewrite: %v", err)
	}
	if meta.Total != 8*40 {
		t.Errorf("total = %d, want 320", meta.Total)
	}
	ds, err := reader.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if problems := ds.Fsck(reader.FsckOptions{Deep: true}); len(problems) != 0 {
		t.Errorf("rewritten dataset fails fsck: %v", problems)
	}
}

// TestFaultMetaWriteAbortsAllRanks fails the final metadata rename on
// rank 0: the write is fully done on every aggregator, yet the agreed
// outcome is failure, and the abort removes the already-published data
// files so no metadata-less orphans remain.
func TestFaultMetaWriteAbortsAllRanks(t *testing.T) {
	dir := t.TempDir()
	simDims := geom.I3(4, 1, 1)
	cfg := WriteConfig{
		Agg: agg.Config{Domain: geom.UnitBox(), SimDims: simDims, Factor: geom.I3(2, 1, 1)},
	}
	inj := fault.NewInjector()
	inj.Add(0, fault.Fault{Op: fault.OpRename, Path: format.MetaFileName})

	grid := geom.NewGrid(geom.UnitBox(), simDims)
	errs := make([]error, 4)
	err := runWithWatchdog(t, 4, 60*time.Second, func(c *mpi.Comm) error {
		local := particle.Uniform(particle.Uintah(), grid.CellBox(geom.Unlinear(c.Rank(), simDims)), 25, 3, c.Rank())
		rcfg := cfg
		rcfg.FS = inj.FS(c.Rank())
		_, errs[c.Rank()] = Write(c, dir, rcfg, local)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, werr := range errs {
		if werr == nil {
			t.Errorf("rank %d returned nil from an agreed-failed write", r)
		}
	}
	for _, name := range listDatasetFiles(t, dir) {
		t.Errorf("aborted write left %q visible", name)
	}
	noSegmentsHeld(t)
}

// TestFaultTransientWriteRetries injects a single transient write error
// on an aggregator: the bounded retry inside the atomic writer must
// absorb it and the collective write must succeed end to end.
func TestFaultTransientWriteRetries(t *testing.T) {
	dir := t.TempDir()
	simDims := geom.I3(2, 1, 1)
	cfg := WriteConfig{
		Agg: agg.Config{Domain: geom.UnitBox(), SimDims: simDims, Factor: geom.I3(2, 1, 1)},
	}
	inj := fault.NewInjector()
	inj.Add(0, fault.Fault{
		Op:    fault.OpWrite,
		Path:  format.DataFileName(0),
		Err:   fault.Transient(fmt.Errorf("injected flaky write")),
		Count: 1,
	})

	grid := geom.NewGrid(geom.UnitBox(), simDims)
	err := runWithWatchdog(t, 2, 60*time.Second, func(c *mpi.Comm) error {
		local := particle.Uniform(particle.Uintah(), grid.CellBox(geom.Unlinear(c.Rank(), simDims)), 30, 9, c.Rank())
		rcfg := cfg
		rcfg.FS = inj.FS(c.Rank())
		_, err := Write(c, dir, rcfg, local)
		return err
	})
	if err != nil {
		t.Fatalf("write with one transient fault: %v", err)
	}
	if got := inj.Injected(); got != 1 {
		t.Errorf("injected %d faults, want 1", got)
	}
	meta, err := format.ReadMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Total != 60 {
		t.Errorf("total = %d, want 60", meta.Total)
	}
	// The retry gathered the payload again out of the same rows.
	noSegmentsHeld(t)
}

// TestFsckDetectsTornAndPartialWrites simulates a crash after a
// successful write — a data file truncated mid-record and a leftover
// temp file — and requires Fsck to call out both.
func TestFsckDetectsTornAndPartialWrites(t *testing.T) {
	dir := writeUniform(t, geom.I3(4, 1, 1), geom.I3(2, 1, 1), 30, nil)

	// Tear the first data file: keep the header but cut the payload.
	name := format.DataFileName(0)
	path := filepath.Join(dir, name)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	// Leave a stray temp file as an interrupted atomic write would.
	tmp := filepath.Join(dir, format.DataFileName(2)+format.TempSuffix)
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	ds, err := reader.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	problems := ds.Fsck(reader.FsckOptions{Deep: true})
	var sawTorn, sawTemp bool
	for _, p := range problems {
		if strings.Contains(p.Err.Error(), "torn or truncated") {
			sawTorn = true
		}
		if strings.Contains(p.Err.Error(), "leftover temp file") {
			sawTemp = true
		}
	}
	if !sawTorn {
		t.Errorf("fsck missed the torn data file; problems: %v", problems)
	}
	if !sawTemp {
		t.Errorf("fsck missed the leftover temp file; problems: %v", problems)
	}
}

// TestWriteAdaptiveRejectsZeroFactor is the divide-by-zero regression:
// an adaptive write with a zero factor component must fail config
// validation on every rank, not panic while deriving the grid shape.
func TestWriteAdaptiveRejectsZeroFactor(t *testing.T) {
	errs := make([]error, 4)
	err := runWithWatchdog(t, 4, 60*time.Second, func(c *mpi.Comm) error {
		cfg := WriteConfig{
			Agg:      agg.Config{Domain: geom.UnitBox(), SimDims: geom.I3(4, 1, 1), Factor: geom.I3(0, 1, 1)},
			Adaptive: true,
		}
		_, errs[c.Rank()] = Write(c, t.TempDir(), cfg, particle.NewBuffer(particle.Uintah(), 0))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, werr := range errs {
		if werr == nil {
			t.Errorf("rank %d accepted a zero factor component", r)
		}
	}
}
