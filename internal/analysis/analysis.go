// Package analysis is a stdlib-only static-analysis engine (go/ast +
// go/types + go/importer — no external dependencies) carrying the
// project-specific analyzers behind cmd/spiolint.
//
// The analyzers encode correctness contracts the tests do not pin down;
// an analyzer that catches nothing the tests miss is deleted (DESIGN.md
// §8.4, §8.5 and §8.6 hold the mutation trials):
//
//   - lockorder: the serving tier's mutexes are acquired in one order
//     and not held across blocking operations;
//   - racegate: a field written from two goroutines is guarded by one
//     lock.
//
// The engine is one program: the packages `go list` names are
// type-checked, dependencies first, into one go/types world (load.go),
// so an object reached from two packages is one pointer; the call graph
// over them is resolved once (callgraph.go); and each analyzer runs once
// over that Program, reporting through the Reporter it is handed.
package analysis

import (
	"fmt"
	"go/token"
	"io"
	"sort"
	"strings"
	"time"
)

// Analyzer is one named check over the loaded program.
type Analyzer struct {
	// Name is the analyzer's short identifier, prefixed to diagnostics.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects the whole program once and reports findings through
	// report.
	Run func(prog *Program, report Reporter)
}

// Reporter records one finding at pos.
type Reporter func(pos token.Pos, format string, args ...any)

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Position token.Position
	Message  string
	// Suppressed marks a finding covered by a //spio:allow directive
	// (directive.go); SuppressReason carries the directive's reason.
	// Suppressed findings do not fail the run but are counted, and listed
	// with their reasons, under -summary.
	Suppressed     bool
	SuppressReason string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
}

// Analyzers returns the full spiolint suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{LockOrder, RaceGate}
}

// ByName returns the named analyzers, or an error naming the unknown
// one.
func ByName(names []string) ([]*Analyzer, error) {
	all := Analyzers()
	if len(names) == 0 {
		return all, nil
	}
	var out []*Analyzer
	for _, n := range names {
		found := false
		for _, a := range all {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
	}
	return out, nil
}

// Run applies every analyzer to the program the packages form and
// returns the combined findings sorted by file position. The packages
// must come from one Load: they share a file set and a type world, so
// helper functions are seen through even when caller and callee live in
// different packages. Findings covered by a //spio:allow directive are
// marked Suppressed (not removed); malformed directives are findings
// themselves.
func Run(analyzers []*Analyzer, pkgs []*Package) []Diagnostic {
	diags, _ := RunTimed(analyzers, pkgs)
	return diags
}

// AnalyzerTiming is the wall-clock cost of one analyzer's run.
type AnalyzerTiming struct {
	Name    string
	Elapsed time.Duration
}

// RunTimed is Run plus a per-analyzer timing table, in suite order.
func RunTimed(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, []AnalyzerTiming) {
	prog := BuildProgram(pkgs)
	var diags []Diagnostic
	timings := make([]AnalyzerTiming, len(analyzers))
	for i, a := range analyzers {
		start := time.Now()
		a.Run(prog, prog.reporter(a.Name, &diags))
		timings[i] = AnalyzerTiming{Name: a.Name, Elapsed: time.Since(start)}
	}
	applyDirectives(prog, analyzers, &diags)
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := diags[i].Position, diags[j].Position
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, timings
}

// reporter returns the Reporter that appends the named analyzer's
// findings to diags.
func (p *Program) reporter(analyzer string, diags *[]Diagnostic) Reporter {
	return func(pos token.Pos, format string, args ...any) {
		*diags = append(*diags, Diagnostic{
			Analyzer: analyzer,
			Position: p.Fset.Position(pos),
			Message:  fmt.Sprintf(format, args...),
		})
	}
}

// TimingsLine renders the per-analyzer wall times as one parseable
// line, e.g. "lockorder=0.4ms racegate=1.2ms". ci.sh surfaces it
// under -summary, so the format is a contract: space-separated
// name=<float>ms pairs in suite order.
func TimingsLine(timings []AnalyzerTiming) string {
	var b strings.Builder
	for i, tm := range timings {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.1fms", tm.Name, float64(tm.Elapsed.Microseconds())/1000)
	}
	return b.String()
}

// WriteText prints active diagnostics one per line in file:line:col
// form. Suppressed findings are printed only when showSuppressed is
// set, with the directive's reason appended.
func WriteText(w io.Writer, diags []Diagnostic, showSuppressed bool) {
	for _, d := range diags {
		if d.Suppressed {
			if showSuppressed {
				fmt.Fprintf(w, "%s [suppressed: %s]\n", d.String(), d.SuppressReason)
			}
			continue
		}
		fmt.Fprintln(w, d.String())
	}
}

// Exit codes of the spiolint command. Load or type-check failures
// (ExitLoadError) are distinct from findings (ExitFindings): CI can
// tell "the code is broken" from "the code is suspect".
const (
	ExitClean     = 0
	ExitFindings  = 1
	ExitLoadError = 2
)

// ExitCode maps a finished run's diagnostics to the spiolint exit
// code: ExitFindings when any unsuppressed diagnostic remains,
// ExitClean otherwise. Load failures never reach here — they are
// ExitLoadError at the caller.
func ExitCode(diags []Diagnostic) int {
	for _, d := range diags {
		if !d.Suppressed {
			return ExitFindings
		}
	}
	return ExitClean
}

// Summarize renders the per-analyzer diagnostic counts as one line,
// e.g. "lockorder=1 racegate=0 suppressed=2". Analyzer order is
// the suite order; suppressed findings count toward the suppressed
// total, not the per-analyzer count.
func Summarize(analyzers []*Analyzer, diags []Diagnostic) string {
	counts := make(map[string]int)
	suppressed := 0
	for _, d := range diags {
		if d.Suppressed {
			suppressed++
			continue
		}
		counts[d.Analyzer]++
	}
	var b strings.Builder
	for _, a := range analyzers {
		fmt.Fprintf(&b, "%s=%d ", a.Name, counts[a.Name])
		delete(counts, a.Name)
	}
	// Diagnostics from outside the analyzer list (malformed
	// directives) still need to be visible.
	extras := make([]string, 0, len(counts))
	for name := range counts {
		extras = append(extras, name)
	}
	sort.Strings(extras)
	for _, name := range extras {
		fmt.Fprintf(&b, "%s=%d ", name, counts[name])
	}
	fmt.Fprintf(&b, "suppressed=%d", suppressed)
	return b.String()
}
