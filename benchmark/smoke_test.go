package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// contract is the part of ../BENCHMARK.json the smoke test compares
// the program's output with.
type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs all four workloads at -scale tiny, untraced and traced,
// and checks that no op failed and that the workload and metric names
// and units printed are exactly those of BENCHMARK.json.
func TestSmoke(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(blob, &c); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, " ") != strings.Join(workloadNames, " ") {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}

	for _, mode := range []struct {
		trace string
		want  []struct{ Name, Unit string }
	}{{"0", c.EndToEnd}, {"1", c.PerLayer}} {
		var stdout, stderr bytes.Buffer
		args := []string{"-workload", "all", "-scale", "tiny", "-seed", "7", "-trace", mode.trace, "-dir", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit code %d\n%s", mode.trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		if len(lines) != len(workloadNames) {
			t.Fatalf("trace %s: %d result lines, want %d", mode.trace, len(lines), len(workloadNames))
		}
		var want []string
		for _, m := range mode.want {
			want = append(want, m.Name+" "+m.Unit)
		}
		sort.Strings(want)
		for i, line := range lines {
			var res result
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				t.Fatalf("trace %s, %s: %v", mode.trace, workloadNames[i], err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("trace %s, %s: correct=%v attempted=%d failed=%d\n%s",
					mode.trace, workloadNames[i], res.Correct, res.Attempted, res.Failed, stderr.String())
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name+" "+m.Unit)
			}
			sort.Strings(got)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("trace %s, %s: metrics differ from BENCHMARK.json\ngot  %v\nwant %v", mode.trace, workloadNames[i], got, want)
			}
		}
		if !strings.Contains(stderr.String(), `"scale":"tiny"`) {
			t.Errorf("trace %s: the stamp does not mark the run as tiny", mode.trace)
		}
	}
}
