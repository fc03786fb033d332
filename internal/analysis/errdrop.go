package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrDrop flags discarded error and WriteResult returns from the spio
// API surface: the root package, and the internal packages whose types
// it re-exports (core, format, reader, particle, profile, mpi). The
// write pipeline reports partial failure only through these returns —
// an aggregator whose file write failed, a reader that decoded a
// truncated record — so dropping them silently breaks the "every rank
// observed the same outcome" reasoning the collective pipeline depends
// on.
//
// Two shapes are flagged:
//
//   - a call used as a bare statement whose results include an error or
//     core.WriteResult (everything dropped);
//   - a multi-value assignment that blanks the error position while
//     binding other results (`buf, _ := ds.QueryBox(...)`).
//
// Deliberately not flagged: deferred and go'd calls (`defer ds.Close()`
// is idiomatic teardown), single-value `_ = f()` (an explicit,
// greppable discard), assignments that blank every position (the same
// explicit discard, spelled across a tuple), and `_, err :=` (dropping
// the WriteResult while keeping the error is the documented
// non-aggregator pattern).
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "flags discarded error/WriteResult returns from the spio public API and internal encode/decode calls",
	Run:  perPackage(runErrDrop),
}

// errDropPackages is the API surface errdrop watches.
var errDropPackages = map[string]bool{
	rootPath:                true,
	corePath:                true,
	particlePath:            true,
	mpiPath:                 true,
	"spio/internal/format":  true,
	"spio/internal/reader":  true,
	"spio/internal/profile": true,
}

func runErrDrop(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, ok := n.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn, path, droppable := watchedOrPropagating(pass, call)
				if !droppable {
					return true
				}
				if len(path) > 0 {
					pass.Reportf(call.Pos(), "result of %s is dropped: its error propagates the result of %s (call path: %s)", callName(fn), path[len(path)-1], strings.Join(path, " → "))
					return true
				}
				pass.Reportf(call.Pos(), "result of %s is dropped: it reports %s", callName(fn), droppedWhat(fn))
			case *ast.AssignStmt:
				checkBlankedError(pass, n)
			}
			return true
		})
	}
}

// watchedOrPropagating resolves call's callee and reports whether its
// results must not be dropped: a member of the watched API surface, or
// a loaded helper whose error result (per its summary) may carry a
// watched call's error. The returned path is non-nil only in the
// helper case.
func watchedOrPropagating(pass *Pass, call *ast.CallExpr) (*types.Func, []string, bool) {
	if fn, ok := watchedCall(pass.Info, call); ok {
		return fn, nil, true
	}
	if callee, _ := pass.Prog.callee(pass.Info, call); callee != nil {
		if s := pass.Prog.errSummaryOf(callee.Obj); s.propagates {
			return callee.Obj, s.path, true
		}
	}
	return nil, nil, false
}

// checkBlankedError flags `x, _ := watched(...)` where the blanked
// position is error-typed and at least one other position is bound.
func checkBlankedError(pass *Pass, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 || len(as.Lhs) < 2 {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	fn, path, droppable := watchedOrPropagating(pass, call)
	if !droppable {
		return
	}
	sig := fn.Type().(*types.Signature)
	if sig.Results().Len() != len(as.Lhs) {
		return
	}
	someBound := false
	for _, lhs := range as.Lhs {
		if !isBlank(lhs) {
			someBound = true
		}
	}
	if !someBound {
		return // `_, _ =` is an explicit whole-tuple discard
	}
	for i, lhs := range as.Lhs {
		if isBlank(lhs) && isErrorType(sig.Results().At(i).Type()) {
			if len(path) > 0 {
				pass.Reportf(lhs.Pos(), "error from %s is blanked while other results are used (propagates %s; call path: %s)", callName(fn), path[len(path)-1], strings.Join(path, " → "))
				continue
			}
			pass.Reportf(lhs.Pos(), "error from %s is blanked while other results are used", callName(fn))
		}
	}
}

// watchedCall resolves call's callee and reports whether it belongs to
// the watched API surface and returns an error or WriteResult.
func watchedCall(info *types.Info, call *ast.CallExpr) (*types.Func, bool) {
	fn := funcObj(info, call)
	if fn == nil || fn.Pkg() == nil || !errDropPackages[fn.Pkg().Path()] {
		return nil, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil, false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		t := res.At(i).Type()
		if isErrorType(t) || isNamed(t, corePath, "WriteResult") {
			return fn, true
		}
	}
	return nil, false
}

func droppedWhat(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	res := sig.Results()
	hasErr, hasWR := false, false
	for i := 0; i < res.Len(); i++ {
		t := res.At(i).Type()
		hasErr = hasErr || isErrorType(t)
		hasWR = hasWR || isNamed(t, corePath, "WriteResult")
	}
	switch {
	case hasErr && hasWR:
		return "both an error and the rank's WriteResult"
	case hasWR:
		return "the rank's WriteResult"
	default:
		return "an error"
	}
}

func callName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
