package analysis

import (
	"go/ast"
	"testing"
)

// firstCall returns the first call expression anywhere in the named
// fixture function, including inside defer and go statements.
func firstCall(t *testing.T, pkg *Package, fnName string) *ast.CallExpr {
	t.Helper()
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != fnName {
				continue
			}
			var call *ast.CallExpr
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if call != nil {
					return false
				}
				if c, ok := n.(*ast.CallExpr); ok {
					call = c
					return false
				}
				return true
			})
			if call == nil {
				t.Fatalf("%s: no call expression in body", fnName)
			}
			return call
		}
	}
	t.Fatalf("fixture function %s not found", fnName)
	return nil
}

// TestCalleeResolutionEdges pins which call shapes the conservative
// resolver sees through and which it deliberately refuses: direct and
// deferred method calls on concrete receivers resolve; method-value
// bindings (f := c.Close; f()) and calls through func-typed fields
// (go c.hook()) are func-value calls and resolve to nil, surfacing as
// unknown — the "may do anything we cannot see" degradation, never a
// phantom edge.
func TestCalleeResolutionEdges(t *testing.T) {
	pkg := loadFixture(t, "callgraph")
	prog := BuildProgram([]*Package{pkg})

	cases := []struct {
		fn      string
		resolve string // expected callee name, "" for nil
		unknown bool   // expected unknown flag from Program.callee
	}{
		{fn: "Direct", resolve: "Close", unknown: false},
		{fn: "Deferred", resolve: "Close", unknown: false},
		{fn: "MethodValue", resolve: "", unknown: true},
		{fn: "GoField", resolve: "", unknown: true},
	}
	for _, tc := range cases {
		call := firstCall(t, pkg, tc.fn)
		got := staticCallee(pkg.Info, call)
		switch {
		case tc.resolve == "" && got != nil:
			t.Errorf("%s: call resolved to %s, want nil (conservative)", tc.fn, got.Name())
		case tc.resolve != "" && got == nil:
			t.Errorf("%s: call did not resolve, want %s", tc.fn, tc.resolve)
		case tc.resolve != "" && got.Name() != tc.resolve:
			t.Errorf("%s: call resolved to %s, want %s", tc.fn, got.Name(), tc.resolve)
		}
		if tc.resolve != "" {
			if fi, _ := prog.callee(pkg.Info, call); fi == nil || fi.Obj != got {
				t.Errorf("%s: callee() did not return the loaded FuncInfo for %s", tc.fn, tc.resolve)
			}
		}
		if _, unknown := prog.callee(pkg.Info, call); unknown != tc.unknown {
			t.Errorf("%s: callee() unknown = %v, want %v", tc.fn, unknown, tc.unknown)
		}
	}
}

// TestUnresolvedSpawnStaysSilent pins the downstream contract of the
// nil resolutions: a goroutine spawned through a func-typed field is
// invisible to the whole-program passes, so racegate derives no origin
// from it — degraded knowledge stays silent rather than guessing.
func TestUnresolvedSpawnStaysSilent(t *testing.T) {
	pkg := loadFixture(t, "callgraph")
	diags := Run([]*Analyzer{RaceGate}, []*Package{pkg})
	for _, d := range diags {
		t.Errorf("unexpected diagnostic on conservative-edge fixture: %s", d)
	}
}
