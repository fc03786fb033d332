// Package analysis is a stdlib-only static-analysis engine (go/ast +
// go/types + go/importer — no external dependencies) carrying the
// project-specific analyzers behind cmd/spiolint.
//
// The analyzers encode the correctness contracts the runtime cannot
// fully enforce:
//
//   - collorder: every rank must issue the same collective sequence, so
//     a collective call control-dependent on the rank is a deadlock in
//     waiting (internal/mpi documents the SPMD contract; guard.go
//     catches kind mismatches at runtime, but a skipped collective can
//     still hang, which only static analysis can reject up front).
//   - bufhandoff: WriteAsync transfers ownership of the particle buffer
//     until Wait returns (spio.go), so any use in between is a data
//     race with the background checkpoint.
//   - errdrop: the write/read APIs report partial failure through
//     error and WriteResult returns; dropping them silently corrupts
//     the "every rank observed the same outcome" reasoning the
//     collective pipeline depends on.
//   - tagclash: user point-to-point tags must stay inside
//     [0, mpi.UserTagSpace); everything else is the reserved collective
//     tag namespace (internal/mpi/coll.go).
//
// The engine is deliberately small: packages are loaded with `go list`,
// parsed and type-checked with the stdlib source importer, and each
// analyzer gets one type-checked package at a time.
package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
	"time"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name is the analyzer's short identifier, prefixed to diagnostics.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects the package in pass and reports findings via
	// pass.Reportf.
	Run func(pass *Pass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Prog is the whole-program view (call graph + per-function
	// summaries) shared by every pass of one Run.
	Prog *Program

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Package:  p.Pkg.Path(),
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Package  string
	Position token.Position
	Message  string
	// Suppressed marks a finding covered by a //spio:allow directive
	// (directive.go); SuppressReason carries the directive's reason.
	// Suppressed findings do not fail the run but stay visible in -json
	// output and in the summary counts.
	Suppressed     bool
	SuppressReason string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
}

// Analyzers returns the full spiolint suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{CollOrder, BufHandoff, ErrDrop, TagClash, WireSym, CollAbort, LockOrder, WireTaint, GoLeak, RaceGate}
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

// Run applies every analyzer to every package and returns the combined
// findings sorted by file position. A whole-program view (call graph +
// summaries) is built once over all packages, so helper functions are
// seen through even when caller and callee live in different packages.
// Findings covered by a //spio:allow directive are marked Suppressed
// (not removed); malformed directives are findings themselves.
func Run(analyzers []*Analyzer, pkgs []*Package) []Diagnostic {
	diags, _ := RunTimed(analyzers, pkgs)
	return diags
}

// AnalyzerTiming is one analyzer's wall-clock cost over a whole run,
// summed across packages. The lazily built whole-program fixpoints
// (lock sets, exit evidence, taint, race) are charged to the analyzer
// whose pass triggered them — the first asker pays, which is the honest
// attribution for "what does adding this analyzer cost".
type AnalyzerTiming struct {
	Name    string
	Elapsed time.Duration
}

// RunTimed is Run plus a per-analyzer timing table, in suite order.
func RunTimed(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, []AnalyzerTiming) {
	prog := BuildProgram(pkgs)
	var diags []Diagnostic
	elapsed := make([]time.Duration, len(analyzers))
	for _, pkg := range pkgs {
		for i, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Prog:     prog,
				diags:    &diags,
			}
			start := time.Now()
			a.Run(pass)
			elapsed[i] += time.Since(start)
		}
	}
	applyDirectives(pkgs, analyzers, &diags)
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
	timings := make([]AnalyzerTiming, len(analyzers))
	for i, a := range analyzers {
		timings[i] = AnalyzerTiming{Name: a.Name, Elapsed: elapsed[i]}
	}
	return diags, timings
}

// TimingsLine renders the per-analyzer wall times as one parseable
// line, e.g. "collorder=12.3ms bufhandoff=0.4ms ...". ci.sh surfaces it
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

// jsonDiagnostic is the -json wire form of one finding.
type jsonDiagnostic struct {
	Analyzer   string `json:"analyzer"`
	Package    string `json:"package"`
	File       string `json:"file"`
	Line       int    `json:"line"`
	Column     int    `json:"column"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed,omitempty"`
	Reason     string `json:"reason,omitempty"`
}

// WriteJSON prints diagnostics as a JSON array. Suppressed findings are
// included, marked "suppressed" with the directive's reason, so tooling
// can audit what the directives hide.
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	out := make([]jsonDiagnostic, len(diags))
	for i, d := range diags {
		out[i] = jsonDiagnostic{
			Analyzer:   d.Analyzer,
			Package:    d.Package,
			File:       d.Position.Filename,
			Line:       d.Position.Line,
			Column:     d.Position.Column,
			Message:    d.Message,
			Suppressed: d.Suppressed,
			Reason:     d.SuppressReason,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
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
// e.g. "collorder=1 bufhandoff=0 ... suppressed=2". Analyzer order is
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

// typesInfo allocates the Info maps the analyzers need.
func typesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
}
