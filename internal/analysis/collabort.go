package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"spio/internal/mpi"
)

// CollAbort flags the abort-path deadlock: an early `return` on a
// locally-scoped error, taken after the function has entered the
// communication phase, that skips a collective the other ranks will
// still enter. The healthy ranks block in that collective forever —
// the failure mode DESIGN.md §9 calls unagreed abort.
//
// The analyzer is a conservative per-function walk with three pieces of
// interprocedural state from the Program summaries:
//
//   - entered: the function has issued point-to-point or collective
//     communication (directly or through a loaded callee, per
//     mayComm). Before that point, early returns are presumed
//     config-deterministic — identical on every rank — and stay silent.
//   - error classes: an error value is *agreed* when it was produced by
//     (or wrapped around) a call that transitively issues a collective
//     — the agreement round itself made it symmetric — and *local* when
//     it came from a loaded or external function that cannot issue spio
//     collectives. Unresolvable producers (interface methods, func
//     values, parameters) are unknown, and unknown never flags.
//   - the guarded tail: a guard `if <err> { ... return }` is reported
//     only when the statements after it (including, for a fall-through
//     block, the enclosing region's tail) issue a collective, and the
//     guard body itself does not — a body that runs an agreement
//     collective before returning is the sanctioned abort shape.
//
// Function literals are analyzed as their own scopes — the rank body
// passed to mpi.Run is where most user communication lives. A literal
// starts with no error classes: errors captured from the enclosing
// function are unknown and stay silent.
var CollAbort = &Analyzer{
	Name: "collabort",
	Doc:  "flags local-error early returns that skip collectives peers will enter (abort-path deadlocks)",
	Run:  perPackage(runCollAbort),
}

// p2pSet is the machine-readable point-to-point list shared with the
// runtime, mirroring collectiveSet.
var p2pSet = func() map[string]bool {
	m := make(map[string]bool)
	for _, name := range mpi.P2PMethods() {
		m[name] = true
	}
	return m
}()

// errClass is what the analyzer knows about the rank-symmetry of an
// error value.
type errClass int

const (
	// errClassUnknown: cannot tell; never flag.
	errClassUnknown errClass = iota
	// errClassLocal: produced without any collective — other ranks may
	// hold nil where this rank holds an error.
	errClassLocal
	// errClassAgreed: passed through a collective, symmetric across
	// ranks by construction.
	errClassAgreed
)

func runCollAbort(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body == nil {
				return true
			}
			w := &abortWalker{
				pass:    pass,
				cls:     make(map[types.Object]errClass),
				flagged: make(map[token.Pos]bool),
			}
			w.walk(body.List, false)
			return true // descend: nested literals get their own scope
		})
	}
}

type abortWalker struct {
	pass *Pass
	// cls tracks the class of every error-typed local seen assigned.
	cls map[types.Object]errClass
	// entered: communication has been issued on the current path.
	entered bool
	flagged map[token.Pos]bool
}

// walk processes one statement list. outerColl reports whether the
// region that continues after this list (the enclosing block's tail)
// issues a collective.
func (w *abortWalker) walk(stmts []ast.Stmt, outerColl bool) {
	for i, s := range stmts {
		rest := stmts[i+1:]
		switch st := s.(type) {
		case *ast.IfStmt:
			w.walkIf(st, rest, outerColl)
		case *ast.BlockStmt:
			w.walk(st.List, w.tailHasColl(rest, outerColl))
		case *ast.LabeledStmt:
			w.walk([]ast.Stmt{st.Stmt}, w.tailHasColl(rest, outerColl))
			continue // classes and entered were updated by the recursion
		case *ast.ForStmt:
			w.walkLoopBody(st.Init, st.Body, rest, outerColl)
		case *ast.RangeStmt:
			w.walkLoopBody(nil, st.Body, rest, outerColl)
		case *ast.SwitchStmt:
			w.walkCases(st.Init, st.Body, rest, outerColl)
		case *ast.TypeSwitchStmt:
			w.walkCases(st.Init, st.Body, rest, outerColl)
		case *ast.SelectStmt:
			w.walkCases(nil, st.Body, rest, outerColl)
		}
		w.updateClasses(s)
		if w.stmtComms(s) {
			w.entered = true
		}
	}
}

// walkIf evaluates the guard shape against the enclosing tail, then
// recurses into both arms.
func (w *abortWalker) walkIf(ifs *ast.IfStmt, rest []ast.Stmt, outerColl bool) {
	// The init statement runs before the condition: its classes and any
	// communication it issues are visible to the guard itself
	// (`if err := helper(c); err != nil { return err }`).
	if ifs.Init != nil {
		w.updateClasses(ifs.Init)
		if w.stmtComms(ifs.Init) {
			w.entered = true
		}
	}
	w.checkGuard(ifs, rest, outerColl)
	inner := w.tailHasColl(rest, outerColl)
	w.walk(ifs.Body.List, inner)
	switch e := ifs.Else.(type) {
	case *ast.BlockStmt:
		w.walk(e.List, inner)
	case *ast.IfStmt:
		w.walkIf(e, rest, outerColl)
	}
}

// checkGuard flags `if <local err> { ...; return }` when communication
// has started, the body issues no collective of its own, and the tail
// still holds one for the healthy ranks to block in.
func (w *abortWalker) checkGuard(ifs *ast.IfStmt, rest []ast.Stmt, outerColl bool) {
	if !w.entered || ifs.Else != nil || w.flagged[ifs.Pos()] {
		return
	}
	n := len(ifs.Body.List)
	if n == 0 {
		return
	}
	if _, ok := ifs.Body.List[n-1].(*ast.ReturnStmt); !ok {
		return
	}
	errName, ok := w.condLocalError(ifs.Cond)
	if !ok {
		return
	}
	if len(exprCollsNode(w.pass, ifs.Body).calls) > 0 {
		return // the body agrees (or at least communicates) before leaving
	}
	cc, ok := w.firstTailColl(rest, outerColl)
	if !ok {
		return
	}
	w.flagged[ifs.Pos()] = true
	where := ""
	if pos := w.pass.Fset.Position(cc.pos); pos.IsValid() {
		where = fmt.Sprintf(" (line %d)", pos.Line)
	}
	w.pass.Reportf(ifs.Pos(),
		"early return on local error %q skips collective %s%s that ranks without the error still enter; agree on the error first (e.g. Allreduce an error flag) so every rank aborts together",
		errName, cc.name, where)
}

// walkLoopBody recurses into a loop. A return inside the body also
// skips later iterations' collectives, so the body's own collectives
// count toward its tail.
func (w *abortWalker) walkLoopBody(init ast.Stmt, body *ast.BlockStmt, rest []ast.Stmt, outerColl bool) {
	if init != nil {
		w.updateClasses(init)
		if w.stmtComms(init) {
			w.entered = true
		}
	}
	inner := len(exprCollsNode(w.pass, body).calls) > 0 || w.tailHasColl(rest, outerColl)
	w.walk(body.List, inner)
}

// walkCases recurses into each case clause of a switch/select.
func (w *abortWalker) walkCases(init ast.Stmt, body *ast.BlockStmt, rest []ast.Stmt, outerColl bool) {
	if init != nil {
		w.updateClasses(init)
		if w.stmtComms(init) {
			w.entered = true
		}
	}
	inner := w.tailHasColl(rest, outerColl)
	for _, cc := range body.List {
		switch cl := cc.(type) {
		case *ast.CaseClause:
			w.walk(cl.Body, inner)
		case *ast.CommClause:
			w.walk(cl.Body, inner)
		}
	}
}

// tailHasColl reports whether the statements after the current one
// issue a collective, falling through to the enclosing region's tail
// when the list does not end in a return.
func (w *abortWalker) tailHasColl(rest []ast.Stmt, outerColl bool) bool {
	_, ok := w.firstTailColl(rest, outerColl)
	return ok
}

// firstTailColl returns the first collective call in the tail, for the
// diagnostic. A synthetic entry stands in for the enclosing tail when
// the list falls through into it.
func (w *abortWalker) firstTailColl(rest []ast.Stmt, outerColl bool) (collCall, bool) {
	for _, s := range rest {
		if r := exprCollsNode(w.pass, s); len(r.calls) > 0 {
			return r.calls[0], true
		}
	}
	if outerColl && fallsThrough(rest) {
		return collCall{name: "in the enclosing block", pos: token.NoPos}, true
	}
	return collCall{}, false
}

// fallsThrough reports whether control can run off the end of the list
// into the enclosing region (conservatively: it can unless the list
// provably leaves the function).
func fallsThrough(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return true
	}
	switch stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return false
	}
	return true
}

// stmtComms reports whether the statement issues any communication —
// collective or point-to-point, directly or via a loaded callee.
func (w *abortWalker) stmtComms(n ast.Node) bool {
	found := false
	scanCalls(n, func(call *ast.CallExpr) {
		if found {
			return
		}
		name := commMethodName(w.pass.Info, call)
		if collectiveSet[name] || p2pSet[name] {
			found = true
			return
		}
		if callee, _ := w.pass.Prog.callee(w.pass.Info, call); callee != nil {
			found = w.pass.Prog.mayComm[callee.Obj]
		}
	})
	return found
}

// updateClasses records the class of every error-typed local assigned
// anywhere under n, in source order.
func (w *abortWalker) updateClasses(n ast.Node) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					w.assignClass(x.Lhs[i], w.classifyExpr(x.Rhs[i]))
				}
			} else if len(x.Rhs) == 1 {
				cls := w.classifyExpr(x.Rhs[0])
				for _, lhs := range x.Lhs {
					w.assignClass(lhs, cls)
				}
			}
		case *ast.ValueSpec:
			if len(x.Names) == len(x.Values) {
				for i, name := range x.Names {
					w.assignClass(name, w.classifyExpr(x.Values[i]))
				}
			} else if len(x.Values) == 1 {
				cls := w.classifyExpr(x.Values[0])
				for _, name := range x.Names {
					w.assignClass(name, cls)
				}
			}
		}
		return true
	})
}

func (w *abortWalker) assignClass(lhs ast.Expr, cls errClass) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := identObj(w.pass.Info, id)
	if obj == nil || !isErrorType(obj.Type()) {
		return
	}
	w.cls[obj] = cls
}

// classifyExpr derives the class of a value from its producer.
func (w *abortWalker) classifyExpr(e ast.Expr) errClass {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := identObj(w.pass.Info, e); obj != nil {
			if c, ok := w.cls[obj]; ok {
				return c
			}
		}
		return errClassUnknown
	case *ast.CallExpr:
		if collectiveSet[commMethodName(w.pass.Info, e)] {
			return errClassAgreed
		}
		callee, unknown := w.pass.Prog.callee(w.pass.Info, e)
		if unknown {
			return errClassUnknown // interface or func-value call
		}
		if callee != nil {
			if w.pass.Prog.mayColl[callee.Obj] {
				return errClassAgreed
			}
			return errClassLocal
		}
		// External callee (stdlib): it cannot issue spio collectives,
		// but wrapping an agreed error keeps the agreement
		// (`fmt.Errorf("…: %w", agreedErr)`).
		for _, a := range e.Args {
			if id, ok := ast.Unparen(a).(*ast.Ident); ok {
				if obj := identObj(w.pass.Info, id); obj != nil && w.cls[obj] == errClassAgreed {
					return errClassAgreed
				}
			}
		}
		return errClassLocal
	default:
		return errClassUnknown
	}
}

// condLocalError reports whether the condition's error operands are all
// known-local: at least one error-typed identifier, every one classed
// local. Any agreed or unknown operand keeps the guard silent.
func (w *abortWalker) condLocalError(cond ast.Expr) (string, bool) {
	name := ""
	ok := true
	ast.Inspect(cond, func(x ast.Node) bool {
		if !ok {
			return false
		}
		if _, isLit := x.(*ast.FuncLit); isLit {
			return false
		}
		id, isIdent := x.(*ast.Ident)
		if !isIdent {
			return true
		}
		obj := identObj(w.pass.Info, id)
		if obj == nil || !isErrorType(obj.Type()) {
			return true
		}
		if w.cls[obj] != errClassLocal {
			ok = false
			return false
		}
		name = id.Name
		return true
	})
	return name, ok && name != ""
}
