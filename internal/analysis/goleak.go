package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoLeak flags `go` statements that spawn a goroutine with no visible
// exit discipline: nothing in the goroutine's body (or in any function
// it statically calls) ties its lifetime to a WaitGroup.Done, a channel
// operation (close, send, receive, select, range), or a context /
// stop-flag check. Such a goroutine cannot be waited for, cannot be
// told to stop, and — in a resident server — accumulates across
// reloads: the leak is structural, visible before the process ever
// runs.
//
// Evidence is collected transitively through the call graph (a
// goroutine whose body is just `s.handleConn(conn)` is tracked if
// handleConn checks the server's stop channel), and the check is
// deliberately one-sided: *any* evidence anywhere in the body clears
// the goroutine, so the analyzer under-reports rather than drowning
// real leaks in path-sensitivity noise. Goroutines whose target cannot
// be resolved (func values, interface methods) are skipped for the
// same reason. DESIGN.md §8.3 records both boundaries.
var GoLeak = &Analyzer{
	Name: "goleak",
	Doc:  "flags goroutines whose exit is not tied to a WaitGroup, channel, or stop-flag check",
	Run:  runGoLeak,
}

// runGoLeak computes, for every loaded function, whether it
// (transitively) contains goroutine-exit evidence, then checks every go
// statement in the program against it.
func runGoLeak(prog *Program, report Reporter) {
	exits := prog.reach(func(fi *FuncInfo) bool { return directExitEvidence(fi.Pkg.Info, fi.Decl.Body) })
	for _, pkg := range prog.Pkgs {
		info := pkg.Info
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				st, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
					// Direct evidence in the literal, or in a function it
					// statically calls.
					found := directExitEvidence(info, lit.Body)
					scanCalls(lit.Body, func(call *ast.CallExpr) {
						if callee, _ := prog.callee(info, call); callee != nil && exits[callee.Obj] {
							found = true
						}
					})
					if !found {
						report(st.Pos(), "goroutine has no exit discipline: no WaitGroup.Done, channel operation, or stop-flag check ties its lifetime to anything — it can be neither awaited nor cancelled")
					}
					return true
				}
				// A func value, interface method or external function has
				// no body to look into: target unknown, stay silent.
				if callee, _ := prog.callee(info, st.Call); callee != nil && !exits[callee.Obj] {
					report(st.Pos(), "goroutine running %s has no exit discipline: nothing in its call tree performs a WaitGroup.Done, channel operation, or stop-flag check", callName(callee.Obj))
				}
				return true
			})
		}
	}
}

// directExitEvidence scans one body (skipping nested literals and go
// statements — they run on other schedules) for the exit alphabet:
// WaitGroup.Done, close(ch), channel send/receive/select/range,
// context.Context.Done, and atomic flag loads.
func directExitEvidence(info *types.Info, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			found = n.Op == token.ARROW
		case *ast.RangeStmt:
			found = isChanType(info.Types[n.X].Type)
		case *ast.CallExpr:
			found = methodOn(info, n, "sync", "WaitGroup", "Done") || isCloseCall(info, n) ||
				isContextDone(info, n) || isAtomicFlagLoad(info, n)
		}
		return true
	})
	return found
}

// isCloseCall matches the close builtin applied to a channel.
func isCloseCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "close" || len(call.Args) != 1 {
		return false
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "close" {
		return false
	}
	return isChanType(info.Types[call.Args[0]].Type)
}

// isContextDone matches ctx.Done() on context.Context.
func isContextDone(info *types.Info, call *ast.CallExpr) bool {
	fn := funcObj(info, call)
	if fn == nil || fn.Name() != "Done" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isNamed(sig.Recv().Type(), "context", "Context")
}

// isAtomicFlagLoad matches Load on the sync/atomic wrapper types — the
// draining/closing-flag idiom. A counter's Load also matches; false
// evidence only makes the analyzer quieter, never noisier.
func isAtomicFlagLoad(info *types.Info, call *ast.CallExpr) bool {
	fn := funcObj(info, call)
	if fn == nil || fn.Name() != "Load" || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return fn.Pkg().Path() == "sync/atomic"
}
