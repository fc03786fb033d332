package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// wantRe extracts the expectation pattern from a `// want "..."`
// comment in a fixture file.
var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

// expectation is one `// want` comment: a diagnostic must appear on
// this file:line with a message matching pattern.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// testWorld is the one type world every test loads into, so the module
// and the standard library are type-checked once for the whole run: the
// fixtures import a few module packages, and find them already checked
// when a whole-module test (TestRepoClean, first in this file) ran
// before them. In -short mode they come from the source importer instead.
var testWorld = newWorld()

// loadModule loads the whole module, once, for the tests that need the
// real program; they are skipped in -short mode.
func loadModule(t *testing.T) []*Package {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	pkgs, err := testWorld.load([]string{"spio/..."})
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	return pkgs
}

func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	pkg, err := testWorld.loadDir(dir, "fixture/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkg
}

func parseWants(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, file := range pkg.Files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want pattern %q: %v", m[1], err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants = append(wants, &expectation{
					file:    filepath.Base(pos.Filename),
					line:    pos.Line,
					pattern: re,
				})
			}
		}
	}
	return wants
}

// TestRepoClean dogfoods the full analyzer suite over the whole module
// and requires zero unsuppressed diagnostics: the repo itself is the
// largest negative fixture, and a true positive found later must be
// fixed, not suppressed. The few deliberate exceptions (a mutex that
// *dedicates* a conn to one exchange by protocol) stay visible as
// suppressed findings and must each carry their reason.
func TestRepoClean(t *testing.T) {
	diags := Run(Analyzers(), loadModule(t))
	var live []Diagnostic
	for _, d := range diags {
		if d.Suppressed {
			if d.SuppressReason == "" {
				t.Errorf("suppressed finding without a reason: %s", d)
			}
			continue
		}
		live = append(live, d)
	}
	if len(live) > 0 {
		var b strings.Builder
		for _, d := range live {
			fmt.Fprintf(&b, "\n  %s", d)
		}
		t.Errorf("spiolint reports %d unsuppressed diagnostics on the repo (must be clean):%s", len(live), b.String())
	}
}

// TestAnalyzerFixtures runs each analyzer over its golden fixture
// package and checks the diagnostics against the `// want` comments:
// every want must be hit, and every diagnostic must be wanted. Each
// fixture contains at least two true positives and at least one
// deliberately clean shape.
func TestAnalyzerFixtures(t *testing.T) {
	for _, a := range Analyzers() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			pkg := loadFixture(t, a.Name)
			wants := parseWants(t, pkg)
			if len(wants) < 2 {
				t.Fatalf("fixture for %s declares %d wants; need at least 2 true positives", a.Name, len(wants))
			}
			diags := Run([]*Analyzer{a}, []*Package{pkg})
			for _, d := range diags {
				if d.Analyzer != a.Name {
					t.Errorf("diagnostic from unexpected analyzer %s: %s", d.Analyzer, d)
					continue
				}
				matched := false
				for _, w := range wants {
					if w.file == filepath.Base(d.Position.Filename) && w.line == d.Position.Line && w.pattern.MatchString(d.Message) {
						w.matched = true
						matched = true
					}
				}
				if !matched {
					t.Errorf("unexpected diagnostic (no matching want): %s", d)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("want %q at %s:%d: no diagnostic reported", w.pattern, w.file, w.line)
				}
			}
		})
	}
}

// TestSuppression runs the suite over the suppress fixture and checks
// the //spio:allow contract: covered findings are marked Suppressed
// with the directive's reason, uncovered ones stay live, and malformed
// or stale directives are findings of the pseudo-analyzer "directive".
func TestSuppression(t *testing.T) {
	pkg := loadFixture(t, "suppress")
	diags := Run(Analyzers(), []*Package{pkg})

	find := func(analyzer, msgPart string) *Diagnostic {
		t.Helper()
		for i := range diags {
			d := &diags[i]
			if d.Analyzer == analyzer && strings.Contains(d.Message, msgPart) {
				return d
			}
		}
		t.Fatalf("no %s diagnostic containing %q in:\n%v", analyzer, msgPart, diags)
		return nil
	}

	suppressed := 0
	live := 0
	for _, d := range diags {
		if d.Analyzer != "lockorder" {
			continue
		}
		if d.Suppressed {
			suppressed++
			if want := "demo: deliberately held across the send"; d.SuppressReason != want {
				t.Errorf("suppressed finding carries reason %q, want %q", d.SuppressReason, want)
			}
		} else {
			live++
		}
	}
	if suppressed != 1 {
		t.Errorf("got %d suppressed lockorder findings, want 1", suppressed)
	}
	if live != 3 {
		// unsuppressedSend, missingReason, unknownAnalyzer
		t.Errorf("got %d live lockorder findings, want 3", live)
	}

	find(directiveAnalyzer, "missing its reason")
	find(directiveAnalyzer, `unknown analyzer "lockordr"`)
	find(directiveAnalyzer, "suppresses no finding")

	// Suppressed findings are hidden from plain text output and shown,
	// with their reason, under -summary.
	var plain, withFlag strings.Builder
	WriteText(&plain, diags, false)
	WriteText(&withFlag, diags, true)
	if strings.Contains(plain.String(), "[suppressed:") {
		t.Errorf("default text output leaks suppressed findings:\n%s", plain.String())
	}
	if !strings.Contains(withFlag.String(), "[suppressed: demo: deliberately held across the send]") {
		t.Errorf("-summary text output misses the suppressed finding:\n%s", withFlag.String())
	}

	// The summary line counts suppressed findings separately.
	if sum := Summarize(Analyzers(), diags); !strings.Contains(sum, "suppressed=1") {
		t.Errorf("Summarize = %q, want suppressed=1", sum)
	}
}

// TestExitCodes pins the engine's three-way exit contract: clean runs
// exit 0, unsuppressed findings exit 1, suppressed-only runs exit 0,
// and load failures are the caller's ExitLoadError (2), distinct from
// both.
func TestExitCodes(t *testing.T) {
	if ExitClean != 0 || ExitFindings != 1 || ExitLoadError != 2 {
		t.Fatalf("exit code constants changed: clean=%d findings=%d load=%d", ExitClean, ExitFindings, ExitLoadError)
	}
	if got := ExitCode(nil); got != ExitClean {
		t.Errorf("ExitCode(nil) = %d, want %d", got, ExitClean)
	}
	if got := ExitCode([]Diagnostic{{Analyzer: "lockorder", Suppressed: true}}); got != ExitClean {
		t.Errorf("ExitCode(suppressed-only) = %d, want %d", got, ExitClean)
	}
	if got := ExitCode([]Diagnostic{{Analyzer: "lockorder", Suppressed: true}, {Analyzer: "racegate"}}); got != ExitFindings {
		t.Errorf("ExitCode(mixed) = %d, want %d", got, ExitFindings)
	}
	// A load failure never produces diagnostics; the loader's error is
	// what the CLI maps to ExitLoadError.
	if _, err := Load([]string{"spio/internal/nosuchpackage"}); err == nil {
		t.Error("Load of a missing package: want error (CLI exit 2), got nil")
	}
}

// TestSummarize pins the one-line per-analyzer count format ci.sh
// surfaces.
func TestSummarize(t *testing.T) {
	diags := []Diagnostic{
		{Analyzer: "lockorder"},
		{Analyzer: "lockorder"},
		{Analyzer: "racegate", Suppressed: true},
		{Analyzer: "directive"},
	}
	got := Summarize(Analyzers(), diags)
	want := "lockorder=2 racegate=0 directive=1 suppressed=1"
	if got != want {
		t.Fatalf("Summarize = %q, want %q", got, want)
	}
}

// TestLoadDirRejectsMissing covers the fixture loader's error path.
func TestLoadDirRejectsMissing(t *testing.T) {
	if _, err := testWorld.loadDir(filepath.Join("testdata", "src", "nosuch"), "fixture/nosuch"); err == nil {
		t.Fatal("loadDir on a missing directory: want error, got nil")
	}
}

// TestDiagnosticString pins the file:line:col prefix format the CI
// gate greps for.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Analyzer: "lockorder",
		Position: token.Position{Filename: "x.go", Line: 3, Column: 7},
		Message:  "boom",
	}
	if got, want := d.String(), "x.go:3:7: lockorder: boom"; got != want {
		t.Fatalf("Diagnostic.String() = %q, want %q", got, want)
	}
}

// TestTimingsLine pins the name=<float>ms format of the -summary output.
func TestTimingsLine(t *testing.T) {
	got := TimingsLine([]AnalyzerTiming{
		{Name: "lockorder", Elapsed: 12345 * time.Microsecond},
		{Name: "racegate", Elapsed: 250 * time.Microsecond},
	})
	if want := "lockorder=12.3ms racegate=0.2ms"; got != want {
		t.Fatalf("TimingsLine = %q, want %q", got, want)
	}
}

// TestOneWorld pins the loader's contract: every loaded package is
// checked into one go/types world, so a function called from another
// package is the very object its declaration defined, and identity
// questions (types.Implements) have one answer. With a world per
// package both halves fail — cross-package callees are importer copies,
// and *gateway.gwMount does not implement the server.Dataset the server
// package itself sees.
func TestOneWorld(t *testing.T) {
	prog := BuildProgram(loadModule(t))
	cross := 0
	for _, pkg := range prog.Pkgs {
		for id, obj := range pkg.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg() == pkg.Types {
				continue
			}
			decl := lookupPackage(prog, fn.Pkg().Path())
			if decl == nil {
				continue // standard library
			}
			cross++
			if fn.Pkg() != decl.Types {
				t.Fatalf("%s: %s resolves into a second copy of package %s", prog.Fset.Position(id.Pos()), fn.FullName(), decl.Path)
			}
			if sig := fn.Type().(*types.Signature); sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
				continue // interface methods have no body to index
			}
			if _, ok := prog.Funcs[fn.Origin()]; !ok {
				t.Errorf("%s: %s is not the object prog.Funcs holds for its declaration", prog.Fset.Position(id.Pos()), fn.FullName())
			}
		}
	}
	if cross == 0 {
		t.Fatal("no cross-package function use found; the test checks nothing")
	}
	mount := lookupPackage(prog, "spio/internal/gateway").Types.Scope().Lookup("gwMount").Type()
	dataset := lookupPackage(prog, "spio/internal/server").Types.Scope().Lookup("Dataset").Type().Underlying().(*types.Interface)
	if !types.Implements(types.NewPointer(mount), dataset) {
		t.Error("types.Implements(*gateway.gwMount, server.Dataset) = false: the two packages were checked into different worlds")
	}
}

func lookupPackage(prog *Program, path string) *Package {
	for _, pkg := range prog.Pkgs {
		if pkg.Path == path {
			return pkg
		}
	}
	return nil
}

// TestResolvedEdges pins the census of call edges resolved to loaded
// functions. The failure it guards against is silent: were cross-package
// identity to break, every such call would degrade to an external leaf
// and each analyzer would simply see less, with a green run.
func TestResolvedEdges(t *testing.T) {
	prog := BuildProgram(loadModule(t))
	edges, cross := 0, 0
	for _, fi := range prog.Funcs {
		for _, c := range fi.Calls {
			edges++
			if c.Callee.Pkg != fi.Pkg {
				cross++
			}
		}
	}
	t.Logf("resolved call edges: %d, %d of them cross-package", edges, cross)
	if cross <= 1000 {
		t.Errorf("only %d cross-package call edges resolve to loaded functions (want > 1000): cross-package calls are degrading to external leaves", cross)
	}
}
