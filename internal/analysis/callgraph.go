package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Whole-program layer. Strictly intraprocedural analyzers miss a
// buffer handoff, a lock, or a dropped API error hidden one function
// deep. Program closes that hole with a conservative call graph
// over every loaded package, resolved once, plus lazily computed
// per-function summaries (summary.go) the analyzers propagate through
// call sites.
//
// Call resolution is deliberately modest and therefore predictable:
//
//   - package-level function calls and method calls whose receiver has
//     a concrete (non-interface) type resolve to their *types.Func —
//     go/types has already done the work via Uses, and because every
//     loaded package is checked into one world (load.go) that object is
//     the declaring package's own, whichever package the call is in;
//   - interface method calls, calls of func-typed values, and calls of
//     function literals do not resolve. They degrade the caller to
//     "may do anything we cannot see": the summary is marked imprecise
//     (Unknown) but no phantom behaviour is invented, because inventing
//     it would flag every call through an interface and bury the real
//     findings. DESIGN.md §8 spells out this soundness trade.
//   - calls that resolve to functions outside the loaded package set
//     (the standard library) are treated as behaviour-free for the
//     spio contracts: an external package cannot hand off a spio buffer
//     or call the spio API except through a func value, which is already
//     an unknown call.
type Program struct {
	Pkgs []*Package
	// Fset is the file set every loaded package was parsed into.
	Fset *token.FileSet
	// Funcs indexes every function and method declared (with a body) in
	// the loaded packages.
	Funcs map[*types.Func]*FuncInfo

	// Per-function summaries memoized for the file-by-file analyzers
	// (summary.go), with their in-progress sets for cycles.
	bufSums map[*types.Func]*bufSummary
	errSums map[*types.Func]*errSummary

	bufVisiting map[*types.Func]bool
	errVisiting map[*types.Func]bool
}

// FuncInfo is one call-graph node: a declared function with a body,
// together with the package context needed to analyze it.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Calls are the body's calls that resolve to loaded functions, in
	// source order: the graph's out-edges. Function literals and go
	// statements are excluded (scanCalls) — their calls run on another
	// schedule.
	Calls []Call
}

// Call is one resolved call-graph edge.
type Call struct {
	Site   *ast.CallExpr
	Callee *FuncInfo
}

// BuildProgram indexes every function declaration in pkgs and resolves
// the call edges between them.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:        pkgs,
		Funcs:       make(map[*types.Func]*FuncInfo),
		bufSums:     make(map[*types.Func]*bufSummary),
		errSums:     make(map[*types.Func]*errSummary),
		bufVisiting: make(map[*types.Func]bool),
		errVisiting: make(map[*types.Func]bool),
	}
	if len(pkgs) > 0 {
		prog.Fset = pkgs[0].Fset
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					prog.Funcs[fn] = &FuncInfo{Obj: fn, Decl: fd, Pkg: pkg}
				}
			}
		}
	}
	for _, fi := range prog.Funcs {
		scanCalls(fi.Decl.Body, func(call *ast.CallExpr) {
			if callee, _ := prog.callee(fi.Pkg.Info, call); callee != nil {
				fi.Calls = append(fi.Calls, Call{Site: call, Callee: callee})
			}
		})
	}
	return prog
}

// scanCalls visits every call expression under n in source order,
// skipping function literals (their bodies run on their own schedule —
// the same exclusion the intraprocedural walkers apply) and go
// statements (unsequenced with the caller).
func scanCalls(n ast.Node, f func(*ast.CallExpr)) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			f(x)
		}
		return true
	})
}

// reach returns the functions from which one satisfying direct is
// reachable along the resolved call edges, those satisfying it
// themselves included.
func (p *Program) reach(direct func(*FuncInfo) bool) map[*types.Func]bool {
	set := make(map[*types.Func]bool)
	for fn, fi := range p.Funcs {
		if direct(fi) {
			set[fn] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, fi := range p.Funcs {
			if set[fn] {
				continue
			}
			for _, c := range fi.Calls {
				if set[c.Callee.Obj] {
					set[fn] = true
					changed = true
					break
				}
			}
		}
	}
	return set
}

// callee resolves a call expression to a loaded function's FuncInfo.
// It returns nil for unresolvable calls (interface methods, func
// values, literals) and for functions outside the loaded set; unknown
// additionally distinguishes the former — the "may do anything" case —
// from a benign external leaf.
func (p *Program) callee(info *types.Info, call *ast.CallExpr) (fi *FuncInfo, unknown bool) {
	fn := staticCallee(info, call)
	if fn == nil {
		return nil, true
	}
	return p.Funcs[fn], false
}

// staticCallee resolves the called *types.Func when the call target is
// statically known: a package-level function or a method invoked on a
// concrete receiver. Interface method calls and func-value calls
// return nil. A method of an instantiated generic type resolves to its
// declaration (Origin), the object Funcs is keyed by.
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
	return fn.Origin()
}
