package analysis

import (
	"encoding/json"
	"go/token"
	"strings"
	"testing"
	"time"
)

// TestWriteSARIF pins the SARIF wire contract for the two finding
// states: an unsuppressed finding carries an explicit empty
// suppressions array ("checked, none apply"), a suppressed one carries
// exactly one inSource suppression with the directive's reason as its
// justification. A viewer filtering on suppression state must agree
// with spiolint's exit code.
func TestWriteSARIF(t *testing.T) {
	diags := []Diagnostic{
		{
			Analyzer: "racegate",
			Package:  "spio/internal/mpi",
			Position: token.Position{Filename: "world.go", Line: 56, Column: 2},
			Message:  "field sendDelay is written without a lock",
		},
		{
			Analyzer:       "racegate",
			Package:        "spio/internal/mpi",
			Position:       token.Position{Filename: "p2p.go", Line: 9, Column: 1},
			Message:        "field queue is written without a lock",
			Suppressed:     true,
			SuppressReason: "set before the rank goroutines start",
		},
	}
	var buf strings.Builder
	if err := WriteSARIF(&buf, Analyzers(), diags); err != nil {
		t.Fatalf("WriteSARIF: %v", err)
	}

	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID  string `json:"ruleId"`
				Level   string `json:"level"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
				Suppressions *[]struct {
					Kind          string `json:"kind"`
					Justification string `json:"justification"`
				} `json:"suppressions"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-2.1.0") {
		t.Errorf("version/schema = %q / %q, want SARIF 2.1.0", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "spiolint" {
		t.Errorf("driver name = %q, want spiolint", run.Tool.Driver.Name)
	}
	if got, want := len(run.Tool.Driver.Rules), len(Analyzers()); got != want {
		t.Errorf("got %d rules, want one per analyzer (%d)", got, want)
	}
	if len(run.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(run.Results))
	}

	live, silenced := run.Results[0], run.Results[1]
	if live.RuleID != "racegate" || live.Level != "warning" {
		t.Errorf("live result ruleId/level = %q/%q, want racegate/warning", live.RuleID, live.Level)
	}
	loc := live.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "world.go" || loc.Region.StartLine != 56 || loc.Region.StartColumn != 2 {
		t.Errorf("live result location = %s:%d:%d, want world.go:56:2",
			loc.ArtifactLocation.URI, loc.Region.StartLine, loc.Region.StartColumn)
	}
	if live.Suppressions == nil {
		t.Error("live result omits suppressions; want explicit empty array")
	} else if len(*live.Suppressions) != 0 {
		t.Errorf("live result carries %d suppressions, want 0", len(*live.Suppressions))
	}

	if silenced.Suppressions == nil || len(*silenced.Suppressions) != 1 {
		t.Fatalf("suppressed result suppressions = %v, want exactly 1", silenced.Suppressions)
	}
	sup := (*silenced.Suppressions)[0]
	if sup.Kind != "inSource" {
		t.Errorf("suppression kind = %q, want inSource", sup.Kind)
	}
	if sup.Justification != "set before the rank goroutines start" {
		t.Errorf("suppression justification = %q, want the directive reason", sup.Justification)
	}
}

// TestTimingsLine pins the name=<float>ms format of the -summary output.
func TestTimingsLine(t *testing.T) {
	got := TimingsLine([]AnalyzerTiming{
		{Name: "collorder", Elapsed: 12345 * time.Microsecond},
		{Name: "racegate", Elapsed: 250 * time.Microsecond},
	})
	if want := "collorder=12.3ms racegate=0.2ms"; got != want {
		t.Fatalf("TimingsLine = %q, want %q", got, want)
	}
}
