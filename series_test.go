package spio_test

import (
	"os"
	"path/filepath"
	"testing"

	"spio"
)

func writeSeries(t *testing.T, base string, steps int) {
	t.Helper()
	simDims := spio.I3(2, 2, 1)
	grid := spio.NewGrid(spio.UnitBox(), simDims)
	cfg := spio.WriteConfig{
		Agg: spio.AggConfig{Domain: spio.UnitBox(), SimDims: simDims, Factor: spio.I3(2, 1, 1)},
	}
	err := spio.Run(4, func(c *spio.Comm) error {
		local := spio.Uniform(spio.UintahSchema(), grid.CellBox(spio.Unlinear(c.Rank(), simDims)), 50, 3, c.Rank())
		for step := 0; step < steps; step++ {
			if _, err := spio.WriteStep(c, base, step, cfg, local); err != nil {
				return err
			}
			spio.Advect(local, spio.UnitBox(), spio.V3(0.2, 0.1, 0), 0.1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSeriesRoundTrip(t *testing.T) {
	base := t.TempDir()
	writeSeries(t, base, 3)
	steps, err := spio.Steps(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 3 || steps[0] != 0 || steps[2] != 2 {
		t.Fatalf("steps = %v", steps)
	}
	for _, s := range steps {
		ds, err := spio.OpenStep(base, s)
		if err != nil {
			t.Fatal(err)
		}
		if ds.Meta().Total != 200 {
			t.Errorf("step %d total = %d", s, ds.Meta().Total)
		}
	}
}

func TestStepsIgnoresJunk(t *testing.T) {
	base := t.TempDir()
	writeSeries(t, base, 2)
	// Junk that must be ignored: a stray file, a non-matching dir, a
	// step-named dir without valid metadata.
	os.WriteFile(filepath.Join(base, "notes.txt"), []byte("x"), 0o644)
	os.Mkdir(filepath.Join(base, "checkpoint-old"), 0o755)
	os.Mkdir(filepath.Join(base, "t000099"), 0o755)
	steps, err := spio.Steps(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 {
		t.Errorf("steps = %v, want [0 1]", steps)
	}
}

func TestStepsMissingBase(t *testing.T) {
	if _, err := spio.Steps(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("missing base accepted")
	}
}

func TestRestartFacade(t *testing.T) {
	base := t.TempDir()
	writeSeries(t, base, 1)
	err := spio.Run(2, func(c *spio.Comm) error {
		buf, err := spio.Restart(c, spio.StepDir(base, 0), spio.UnitBox(), spio.I3(2, 1, 1))
		if err != nil {
			return err
		}
		if buf.Len() == 0 {
			t.Error("restart returned no particles")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
