package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Whole-program layer. PR 1's analyzers were strictly intraprocedural:
// a collective, a buffer handoff, or a dropped API error hidden one
// function deep escaped every check. Program closes that hole with a
// conservative call graph over every loaded package plus lazily
// computed per-function summaries (summary.go) the analyzers propagate
// through call sites.
//
// Call resolution is deliberately modest and therefore predictable:
//
//   - package-level function calls and method calls whose receiver has
//     a concrete (non-interface) type resolve to their *types.Func —
//     go/types has already done the work via Uses;
//   - interface method calls, calls of func-typed values, and calls of
//     function literals do not resolve. They degrade the caller to
//     "may do anything we cannot see": the summary is marked imprecise
//     (Unknown) but no phantom behaviour is invented, because inventing
//     it would flag every rank-guarded log statement and bury the real
//     findings. DESIGN.md §8 spells out this soundness trade.
//   - calls that resolve to functions outside the loaded package set
//     (the standard library) are treated as behaviour-free for the
//     spio contracts: an external package cannot issue spio collectives
//     or spio API calls except through a func value, which is already
//     an unknown call.
type Program struct {
	Pkgs []*Package
	// Funcs indexes every function and method declared (with a body) in
	// the loaded packages.
	Funcs map[*types.Func]*FuncInfo
	// byKey indexes the same functions by a package-path-qualified name.
	// The source importer type-checks each loaded package in its own
	// world, so a cross-package reference resolves to the importer's
	// *types.Func copy — a different pointer from the one Funcs was
	// built with. Identity must therefore be canonicalized by name
	// (canon) before any map keyed on *types.Func is consulted;
	// without this every cross-package call silently degraded to an
	// external leaf.
	byKey map[string]*FuncInfo

	collSums map[*types.Func]*collSummary
	bufSums  map[*types.Func]*bufSummary
	errSums  map[*types.Func]*errSummary
	wireSums map[*types.Func]*wireSummary
	mayColl  map[*types.Func]bool
	mayP2P   map[*types.Func]bool

	collVisiting map[*types.Func]bool
	bufVisiting  map[*types.Func]bool
	errVisiting  map[*types.Func]bool
	wireVisiting map[*types.Func]bool

	// The concurrency/taint pack (lockorder, wiretaint, goleak) runs as
	// whole-program fixpoints: the first pass to ask triggers one
	// analysis over every loaded function, findings are stored here
	// tagged with their owning package, and each per-package pass
	// reports only its own. lockSums/exitSums/taintSums are the
	// propagated per-function summaries (lock sets, goroutine-exit
	// evidence, taint flow) the fixpoints build.
	lockSums      map[*types.Func]*lockSummary
	lockFindings  []progDiag
	lockReady     bool
	exitSums      map[*types.Func]*exitSummary
	exitReady     bool
	taintSums     map[*types.Func]*taintSummary
	taintFields   map[string]bool
	taintPkgs     map[string]bool
	taintFindings []progDiag
	taintReady    bool
	raceFindings  []progDiag
	raceReady     bool
}

// progDiag is a finding produced by a whole-program fixpoint, held on
// the Program until the owning package's pass reports it.
type progDiag struct {
	pkg string
	pos token.Pos
	msg string
}

// FuncInfo is one call-graph node: a declared function with a body,
// together with the package context needed to analyze it.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
}

// BuildProgram indexes every function declaration in pkgs.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:         pkgs,
		Funcs:        make(map[*types.Func]*FuncInfo),
		byKey:        make(map[string]*FuncInfo),
		collSums:     make(map[*types.Func]*collSummary),
		bufSums:      make(map[*types.Func]*bufSummary),
		errSums:      make(map[*types.Func]*errSummary),
		wireSums:     make(map[*types.Func]*wireSummary),
		collVisiting: make(map[*types.Func]bool),
		bufVisiting:  make(map[*types.Func]bool),
		errVisiting:  make(map[*types.Func]bool),
		wireVisiting: make(map[*types.Func]bool),
		lockSums:     make(map[*types.Func]*lockSummary),
		exitSums:     make(map[*types.Func]*exitSummary),
		taintSums:    make(map[*types.Func]*taintSummary),
		taintFields:  make(map[string]bool),
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Obj: fn, Decl: fd, Pkg: pkg}
				prog.Funcs[fn] = fi
				if k := funcKey(fn); k != "" {
					prog.byKey[k] = fi
				}
			}
		}
	}
	return prog
}

// funcKey renders fn's package-path-qualified identity:
// "pkg/path.Func" or "pkg/path.Recv.Func". It is the cross-package
// canonical key: two *types.Func copies of the same declaration (one
// from the declaring package's check, one from an importing package's
// importer world) render identically.
func funcKey(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return ""
		}
		recv = named.Obj().Name() + "."
	}
	return pkg.Path() + "." + recv + fn.Name()
}

// canon maps fn to the Program's own *types.Func for the same
// declaration, so pointer-keyed maps (Funcs, the summary memos) agree
// across packages. Functions outside the loaded set pass through
// unchanged.
func (p *Program) canon(fn *types.Func) *types.Func {
	if fn == nil {
		return nil
	}
	if _, ok := p.Funcs[fn]; ok {
		return fn
	}
	if fi, ok := p.byKey[funcKey(fn)]; ok {
		return fi.Obj
	}
	return fn
}

// callee resolves a call expression to a loaded function's FuncInfo.
// It returns nil for unresolvable calls (interface methods, func
// values, literals) and for functions outside the loaded set; unknown
// additionally distinguishes the former — the "may do anything" case —
// from a benign external leaf.
func (p *Program) callee(info *types.Info, call *ast.CallExpr) (fi *FuncInfo, unknown bool) {
	fn := p.calleeFunc(info, call)
	if fn == nil {
		return nil, true
	}
	if fi, ok := p.Funcs[fn]; ok {
		return fi, false
	}
	return nil, false
}

// calleeFunc resolves a call to the Program's canonical *types.Func
// (staticCallee + canon): the result is safe to use as a key into
// Funcs and the summary memos even when the call crosses packages.
func (p *Program) calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	return p.canon(staticCallee(info, call))
}

// staticCallee resolves the called *types.Func when the call target is
// statically known: a package-level function or a method invoked on a
// concrete receiver. Interface method calls and func-value calls
// return nil. The result is the type-checker's object for the calling
// package's world — use Program.calleeFunc for a canonical identity.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fn := funcObj(info, call)
	if fn == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type()) {
			return nil
		}
	}
	return fn
}

// passFor builds the per-package analysis context summaries are
// computed under. Diagnostics reported through it are discarded: the
// summary walkers share the analyzers' walking code but never report.
func (p *Program) passFor(a *Analyzer, pkg *Package) *Pass {
	var discard []Diagnostic
	return &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		Prog:     p,
		diags:    &discard,
	}
}

// funcDisplayName renders fn for call-path diagnostics:
// "pkg.Func" or "Type.Method".
func funcDisplayName(fn *types.Func) string {
	return callName(fn)
}
