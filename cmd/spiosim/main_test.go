package main

import (
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"spio"
)

// TestSimulateAndRestart runs the command twice over one series: four
// ranks checkpointing asynchronously, then a restart from one of those
// checkpoints on two ranks. Every rank enters the same collectives in
// both (a rank that skips one is a guard panic or a timeout here), and
// the particles the first run wrote are the ones the restart carries on.
func TestSimulateAndRestart(t *testing.T) {
	base := filepath.Join(t.TempDir(), "run")
	const perRank = 512
	var out strings.Builder
	if err := run([]string{"-base", base, "-dims", "2x2x1", "-factor", "2x1x1",
		"-steps", "4", "-interval", "2", "-particles", strconv.Itoa(perRank), "-async"}, &out); err != nil {
		t.Fatalf("4-rank async run: %v\n%s", err, out.String())
	}
	if want := "series holds 2 checkpoints: [0 2]"; !strings.Contains(out.String(), want) {
		t.Fatalf("4-rank async run: output lacks %q:\n%s", want, out.String())
	}

	out.Reset()
	if err := run([]string{"-base", base, "-dims", "2x1x1", "-factor", "1x1x1",
		"-steps", "2", "-interval", "2", "-restart", "2"}, &out); err != nil {
		t.Fatalf("2-rank restart: %v\n%s", err, out.String())
	}
	for _, want := range []string{"restarted from step 2 on 2 ranks", "series holds 3 checkpoints: [0 2 4]"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("2-rank restart: output lacks %q:\n%s", want, out.String())
		}
	}

	steps, err := spio.Steps(base)
	if err != nil || !slices.Equal(steps, []int{0, 2, 4}) {
		t.Fatalf("Steps = %v, %v; want [0 2 4]", steps, err)
	}
	for _, s := range steps {
		ds, err := spio.OpenStep(base, s)
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		if got := ds.Meta().Total; got != 4*perRank {
			t.Errorf("step %d holds %d particles, want %d", s, got, 4*perRank)
		}
	}
}
