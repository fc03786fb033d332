package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// BufHandoff enforces the asynchronous buffer-ownership transfer of the
// API: WriteAsync (spio or internal/core spelling) — "Ownership of local
// transfers to the write until Wait returns: the caller must not modify
// the buffer in between."
//
// Any use of the *particle.Buffer between the hand-off and the matching
// Wait races with the background goroutines, so it is flagged.
//
// The check is per function and straight-line: statements are ordered
// by source position, a buffer is tainted from the WriteAsync call to
// the Wait on that call's result (or to the end of the function if the
// handle is discarded or never waited on), and reassigning the buffer
// variable ends its taint (the old buffer is no longer reachable
// through it). Uses inside function literals are flagged too — a
// closure reading the buffer while the checkpoint runs is exactly the
// race — but literal bodies are scanned only for uses, not for Waits,
// since their execution time is unknown.
var BufHandoff = &Analyzer{
	Name: "bufhandoff",
	Doc:  "flags uses of a particle.Buffer between an async handoff (WriteAsync) and Wait (ownership race)",
	Run:  perPackage(runBufHandoff),
}

// handoff is one hand-off call's taint interval.
type handoff struct {
	bufObj  types.Object // the buffer variable handed off
	pendObj types.Object // the PendingWrite handle variable, if bound
	start   token.Pos    // end of the hand-off call
	end     token.Pos    // position of the matching Wait (or NoPos = function end)
	// viaPath is set when the handoff happened through a helper whose
	// summary passes the buffer on; it names the chain for the
	// diagnostic.
	viaPath []string
}

func runBufHandoff(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			checkHandoffs(pass, fd.Body)
			return true
		})
	}
}

func checkHandoffs(pass *Pass, body *ast.BlockStmt) {
	var handoffs []*handoff

	// Pass 1: find handoff calls — WriteAsync itself, or a helper whose
	// summary passes a buffer argument on to WriteAsync — and bind them
	// to their result variable when the call is the RHS of an
	// assignment. The PendingWrite result is identified by type, so
	// helpers returning (handle, error) tuples still bind.
	ast.Inspect(body, func(n ast.Node) bool {
		var call *ast.CallExpr
		var lhs []ast.Expr
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 {
				if c, ok := n.Rhs[0].(*ast.CallExpr); ok {
					call = c
					lhs = n.Lhs
				}
			}
		case *ast.ExprStmt:
			if c, ok := n.X.(*ast.CallExpr); ok {
				call = c
			}
		}
		if call == nil {
			return true
		}
		h, ok := handoffTarget(pass, call)
		if !ok {
			return true
		}
		for _, l := range lhs {
			obj := identObj(pass.Info, l)
			if obj != nil && isNamed(obj.Type(), corePath, "PendingWrite") {
				h.pendObj = obj
				break
			}
		}
		h.start = call.End()
		handoffs = append(handoffs, h)
		return true
	})
	if len(handoffs) == 0 {
		return
	}

	// Pass 2: close each interval at the first Wait on its handle, and
	// at any reassignment of the buffer variable.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if !methodOn(pass.Info, n, corePath, "PendingWrite", "Wait") {
				return true
			}
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recv := identObj(pass.Info, sel.X)
			if recv == nil {
				return true
			}
			for _, h := range handoffs {
				if h.pendObj == recv && n.Pos() > h.start && (h.end == token.NoPos || n.Pos() < h.end) {
					h.end = n.Pos()
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				obj := identObj(pass.Info, lhs)
				if obj == nil {
					continue
				}
				for _, h := range handoffs {
					if h.bufObj == obj && n.Pos() > h.start && (h.end == token.NoPos || n.Pos() < h.end) {
						h.end = n.Pos()
					}
				}
			}
		}
		return true
	})

	// Deep uses: a tainted buffer passed whole to a loaded function
	// whose summary touches that parameter gets its diagnostic enriched
	// with the call path to the use inside the helper.
	deepUse := make(map[*ast.Ident][]string)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee, _ := pass.Prog.callee(pass.Info, call)
		if callee == nil {
			return true
		}
		sum := pass.Prog.bufSummaryOf(callee.Obj)
		csig := callee.Obj.Type().(*types.Signature)
		for a, arg := range call.Args {
			id, ok := ast.Unparen(arg).(*ast.Ident)
			if !ok {
				continue
			}
			j := a
			if j >= csig.Params().Len() {
				j = csig.Params().Len() - 1
			}
			if j >= 0 && sum.touches[j] {
				deepUse[id] = sum.touchPath[j]
			}
		}
		return true
	})

	// Pass 3: flag every use of a tainted buffer inside its interval.
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		if obj == nil {
			return true
		}
		for _, h := range handoffs {
			if h.bufObj != obj || id.Pos() <= h.start {
				continue
			}
			if h.end != token.NoPos && id.Pos() >= h.end {
				continue
			}
			waited := "before Wait on the pending write"
			if h.pendObj == nil && h.end == token.NoPos {
				waited = "and the PendingWrite handle is never waited on"
			}
			via := ""
			if len(h.viaPath) > 0 {
				via = " (handed off via " + strings.Join(h.viaPath, " → ") + ")"
			}
			if path, ok := deepUse[id]; ok {
				pass.Reportf(id.Pos(), "buffer %s is used after being handed off to WriteAsync%s %s (use path: %s): ownership transfers to the checkpoint until Wait returns", id.Name, via, waited, strings.Join(path, " → "))
			} else {
				pass.Reportf(id.Pos(), "buffer %s is used after being handed off to WriteAsync%s %s: ownership transfers to the checkpoint until Wait returns", id.Name, via, waited)
			}
		}
		return true
	})
}

// handoffTarget reports whether call transfers a buffer's ownership to a
// background owner: a direct WriteAsync call (last argument is the
// buffer), or a call to a loaded helper whose summary hands a buffer
// argument off. For helpers the returned handoff carries the call path to
// the underlying hand-off.
func handoffTarget(pass *Pass, call *ast.CallExpr) (*handoff, bool) {
	if isWriteAsync(pass.Info, call) {
		if len(call.Args) == 0 {
			return nil, false
		}
		obj := identObj(pass.Info, call.Args[len(call.Args)-1])
		return &handoff{bufObj: obj}, obj != nil
	}
	callee, _ := pass.Prog.callee(pass.Info, call)
	if callee == nil {
		return nil, false
	}
	sum := pass.Prog.bufSummaryOf(callee.Obj)
	if len(sum.handoff) == 0 {
		return nil, false
	}
	csig := callee.Obj.Type().(*types.Signature)
	for a, arg := range call.Args {
		obj := identObj(pass.Info, arg)
		if obj == nil {
			continue
		}
		j := a
		if j >= csig.Params().Len() {
			j = csig.Params().Len() - 1
		}
		if j >= 0 && sum.handoff[j] {
			return &handoff{bufObj: obj, viaPath: sum.handoffPath[j]}, true
		}
	}
	return nil, false
}

// isWriteAsync reports whether call is spio.WriteAsync or
// core.WriteAsync.
func isWriteAsync(info *types.Info, call *ast.CallExpr) bool {
	return pkgFunc(info, call, rootPath, "WriteAsync") || pkgFunc(info, call, corePath, "WriteAsync")
}
