package analysis

import (
	"go/ast"
	"go/token"
	"slices"
	"strings"

	"spio/internal/mpi"
)

// CollOrder flags collective Comm calls that are control-dependent on
// the calling rank. The SPMD contract (internal/mpi) requires every
// rank to issue the same collective sequence in the same order; a
// collective reachable by only some ranks deadlocks the others (or, with
// the runtime guard, panics mid-run). The analyzer is a conservative
// per-function approximation:
//
//   - A condition is rank-dependent if it mentions Comm.Rank(), the
//     mpi-internal rank field, or a local variable assigned from either.
//     Arithmetic derivations through other variables are tracked one
//     assignment at a time; data flowing through calls or fields is not.
//   - A rank-guarded branch is allowed only if every path issues the
//     same collective sequence: both arms of an if/else, every case of
//     a switch, or — for the guarded-early-return shape — the returning
//     branch versus the remainder of the block (which must also return,
//     so no divergent path escapes the comparison).
//   - The rank-0-does-the-metadata shape used by internal/core —
//     collectives first, `if c.Rank() != 0 { return }` afterwards, no
//     collectives beyond — is therefore accepted: the guarded exit and
//     the fall-through both issue the empty collective sequence.
//
// Function literals are separate analysis roots, and sequencing across
// goroutines (go statements) is out of scope.
var CollOrder = &Analyzer{
	Name: "collorder",
	Doc:  "flags collective operations control-dependent on the rank (collective-mismatch deadlocks)",
	Run:  perPackage(runCollOrder),
}

// collectiveSet is the machine-readable collective list shared with the
// runtime guard.
var collectiveSet = func() map[string]bool {
	m := make(map[string]bool)
	for _, name := range mpi.CollectiveMethods() {
		m[name] = true
	}
	return m
}()

// collCall is one collective call site: a direct Comm collective, or a
// call to a helper whose summary (summary.go) issues collectives.
type collCall struct {
	name string
	pos  token.Pos
	// seq and path are set for helper calls only: the helper's inlined
	// collective signature and a representative call path to the
	// underlying collective.
	seq  []string
	path []string
}

// flowResult summarizes the collective behaviour of a statement region.
type flowResult struct {
	// sig is the canonical collective sequence signature of the region
	// (loop bodies collapse to one for{...} element).
	sig []string
	// calls are the individual collective call sites, for reporting.
	calls []collCall
	// term reports that every path through the region leaves the
	// function (return / branch out / panic-free fallthrough ends).
	term bool
	// guard reports that a rank-dependent early exit occurred, so any
	// later collective in an enclosing region is rank-divergent.
	guard bool
}

func runCollOrder(pass *Pass) {
	for _, file := range pass.Files {
		funcBodies(file, func(body *ast.BlockStmt) {
			w := &collWalker{
				pass:     pass,
				rankObjs: rankDerivedVars(pass, body),
				flagged:  make(map[token.Pos]bool),
			}
			w.walkStmts(body.List)
		})
	}
}

type collWalker struct {
	pass *Pass
	// rankObjs holds the types.Objects of locals derived from the rank.
	rankObjs map[any]bool
	flagged  map[token.Pos]bool
}

// flag reports one divergent collective call, once. Helper calls are
// reported with the helper's collective sequence and a call path, so
// the reader can see which function deep in the tree actually blocks.
func (w *collWalker) flag(cc collCall, guardPos token.Pos, why string) {
	if w.flagged[cc.pos] {
		return
	}
	w.flagged[cc.pos] = true
	g := w.pass.Fset.Position(guardPos)
	if len(cc.seq) > 0 {
		w.pass.Reportf(cc.pos, "call to %s (collective sequence [%s]; call path: %s) %s rank-dependent guard at line %d: every rank must issue the same collective sequence",
			cc.name, strings.Join(cc.seq, " "), strings.Join(cc.path, " → "), why, g.Line)
		return
	}
	w.pass.Reportf(cc.pos, "collective %s %s rank-dependent guard at line %d: every rank must issue the same collective sequence", cc.name, why, g.Line)
}

func (w *collWalker) flagAll(calls []collCall, guardPos token.Pos, why string) {
	for _, cc := range calls {
		w.flag(cc, guardPos, why)
	}
}

// walkStmts analyzes one statement list.
func (w *collWalker) walkStmts(stmts []ast.Stmt) flowResult {
	var out flowResult
	for i, s := range stmts {
		if out.term {
			break // unreachable
		}
		// The guarded-early-return shape needs the tail of this block,
		// so rank-guarded ifs with a terminating branch are handled
		// against stmts[i+1:] here rather than inside walkStmt.
		if ifs, ok := s.(*ast.IfStmt); ok {
			if done, res := w.rankGuardedExit(ifs, stmts[i+1:], out); done {
				out = res
				return out
			}
		}
		r := w.walkStmt(s)
		if out.guard {
			w.flagAll(r.calls, s.Pos(), "is unreachable for ranks taken out by the")
		}
		out.sig = append(out.sig, r.sig...)
		out.calls = append(out.calls, r.calls...)
		out.term = r.term
		out.guard = out.guard || r.guard
	}
	return out
}

// rankGuardedExit handles `if <rank-dep> { ...; return }` (or an else
// arm that returns) against the remainder of the enclosing block. It
// reports whether it consumed the rest of the block.
func (w *collWalker) rankGuardedExit(ifs *ast.IfStmt, tail []ast.Stmt, sofar flowResult) (bool, flowResult) {
	if !w.isRankExpr(ifs.Cond) {
		return false, flowResult{}
	}
	then := w.walkStmts(ifs.Body.List)
	var els flowResult
	hasElse := ifs.Else != nil
	if hasElse {
		els = w.walkElse(ifs.Else)
	}
	if !then.term && !els.term {
		return false, flowResult{}
	}
	// One arm leaves the function. The ranks taking it issue that arm's
	// collectives; everyone else issues the other arm's plus the tail's.
	exit, rest := then, els
	if !then.term {
		exit, rest = els, then
	}
	tailRes := w.walkStmts(tail)
	staySig := append(append([]string{}, rest.sig...), tailRes.sig...)
	balanced := slices.Equal(exit.sig, staySig) && (tailRes.term || rest.term)
	out := sofar
	if cond := exprColls(w.pass, ifs.Cond); len(cond.calls) > 0 {
		out.sig = append(out.sig, cond.sig...)
		out.calls = append(out.calls, cond.calls...)
	}
	out.calls = append(out.calls, exit.calls...)
	out.calls = append(out.calls, rest.calls...)
	out.calls = append(out.calls, tailRes.calls...)
	if balanced {
		out.sig = append(out.sig, exit.sig...)
		out.term = true
		return true, out
	}
	w.flagAll(exit.calls, ifs.Pos(), "is issued by only some ranks under the")
	w.flagAll(rest.calls, ifs.Pos(), "is issued by only some ranks under the")
	w.flagAll(tailRes.calls, ifs.Pos(), "is skipped by ranks that leave early at the")
	out.sig = append(out.sig, staySig...)
	out.term = tailRes.term
	out.guard = true
	return true, out
}

func (w *collWalker) walkElse(s ast.Stmt) flowResult {
	switch e := s.(type) {
	case *ast.BlockStmt:
		return w.walkStmts(e.List)
	default:
		return w.walkStmt(s)
	}
}

func (w *collWalker) walkStmt(s ast.Stmt) flowResult {
	switch s := s.(type) {
	case nil:
		return flowResult{}
	case *ast.BlockStmt:
		return w.walkStmts(s.List)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt)
	case *ast.IfStmt:
		return w.walkIf(s)
	case *ast.ForStmt:
		return w.walkLoop(s.Cond, s.Body, s.Init, s.Post)
	case *ast.RangeStmt:
		return w.walkLoop(nil, s.Body, nil, nil)
	case *ast.SwitchStmt:
		return w.walkSwitch(s.Tag, s.Init, s.Body, s.Pos())
	case *ast.TypeSwitchStmt:
		return w.walkSwitch(nil, s.Init, s.Body, s.Pos())
	case *ast.SelectStmt:
		return w.walkSwitch(nil, nil, s.Body, s.Pos())
	case *ast.ReturnStmt:
		var r flowResult
		for _, e := range s.Results {
			er := exprColls(w.pass, e)
			r.sig = append(r.sig, er.sig...)
			r.calls = append(r.calls, er.calls...)
		}
		r.term = true
		return r
	case *ast.BranchStmt:
		// break/continue/goto end this path's collective stream within
		// the region under comparison.
		return flowResult{term: true}
	case *ast.GoStmt:
		// A goroutine's collectives are not sequenced with ours; its
		// function literal is analyzed as its own root.
		return flowResult{}
	default:
		return exprCollsNode(w.pass, s)
	}
}

func (w *collWalker) walkIf(s *ast.IfStmt) flowResult {
	var out flowResult
	if s.Init != nil {
		r := w.walkStmt(s.Init)
		out.sig = append(out.sig, r.sig...)
		out.calls = append(out.calls, r.calls...)
	}
	cond := exprColls(w.pass, s.Cond)
	out.sig = append(out.sig, cond.sig...)
	out.calls = append(out.calls, cond.calls...)

	then := w.walkStmts(s.Body.List)
	var els flowResult
	if s.Else != nil {
		els = w.walkElse(s.Else)
	}
	out.calls = append(out.calls, then.calls...)
	out.calls = append(out.calls, els.calls...)
	out.guard = then.guard || els.guard
	out.term = then.term && els.term && s.Else != nil

	if w.isRankExpr(s.Cond) {
		// The guarded-early-return shape was handled by the caller; here
		// neither arm terminates, so both arms must issue the same
		// collectives.
		if !slices.Equal(then.sig, els.sig) {
			w.flagAll(then.calls, s.Pos(), "is issued by only some ranks under the")
			w.flagAll(els.calls, s.Pos(), "is issued by only some ranks under the")
			out.guard = true
			return out
		}
		out.sig = append(out.sig, then.sig...)
		return out
	}
	// Rank-uniform condition: every rank takes the same arm, so either
	// arm's sequence is collectively consistent even if they differ.
	if slices.Equal(then.sig, els.sig) {
		out.sig = append(out.sig, then.sig...)
	} else {
		branchSig := "if{" + strings.Join(then.sig, ",") + "|" + strings.Join(els.sig, ",") + "}"
		out.sig = append(out.sig, branchSig)
	}
	return out
}

func (w *collWalker) walkLoop(cond ast.Expr, body *ast.BlockStmt, init, post ast.Stmt) flowResult {
	var out flowResult
	if init != nil {
		r := w.walkStmt(init)
		out.sig = append(out.sig, r.sig...)
		out.calls = append(out.calls, r.calls...)
	}
	inner := w.walkStmts(body.List)
	if post != nil {
		p := w.walkStmt(post)
		inner.sig = append(inner.sig, p.sig...)
		inner.calls = append(inner.calls, p.calls...)
	}
	out.calls = append(out.calls, inner.calls...)
	out.guard = inner.guard
	if cond != nil && w.isRankExpr(cond) && len(inner.calls) > 0 {
		// The iteration count differs per rank, so so does the number of
		// collective rounds.
		w.flagAll(inner.calls, cond.Pos(), "repeats under the")
		out.guard = true
		return out
	}
	if len(inner.sig) > 0 {
		out.sig = append(out.sig, "for{"+strings.Join(inner.sig, ",")+"}")
	}
	return out
}

func (w *collWalker) walkSwitch(tag ast.Expr, init ast.Stmt, body *ast.BlockStmt, pos token.Pos) flowResult {
	var out flowResult
	if init != nil {
		r := w.walkStmt(init)
		out.sig = append(out.sig, r.sig...)
		out.calls = append(out.calls, r.calls...)
	}
	if tag != nil {
		t := exprColls(w.pass, tag)
		out.sig = append(out.sig, t.sig...)
		out.calls = append(out.calls, t.calls...)
	}
	var cases []flowResult
	hasDefault := false
	for _, cc := range body.List {
		var list []ast.Stmt
		switch cl := cc.(type) {
		case *ast.CaseClause:
			list = cl.Body
			hasDefault = hasDefault || cl.List == nil
		case *ast.CommClause:
			list = cl.Body
			hasDefault = hasDefault || cl.Comm == nil
		}
		cases = append(cases, w.walkStmts(list))
	}
	allEqual := true
	for i, cr := range cases {
		out.calls = append(out.calls, cr.calls...)
		out.guard = out.guard || cr.guard
		if i > 0 && !slices.Equal(cr.sig, cases[0].sig) {
			allEqual = false
		}
	}
	rankDep := tag != nil && w.isRankExpr(tag)
	if !rankDep {
		// Also catch `switch { case c.Rank() == 0: ... }`.
		for _, cc := range body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				for _, e := range cl.List {
					if w.isRankExpr(e) {
						rankDep = true
					}
				}
			}
		}
	}
	if rankDep {
		balanced := allEqual && len(cases) > 0 && (hasDefault || len(cases[0].sig) == 0)
		if !balanced {
			for _, cr := range cases {
				w.flagAll(cr.calls, pos, "is issued by only some ranks under the")
			}
			out.guard = true
			return out
		}
	}
	if allEqual && len(cases) > 0 {
		out.sig = append(out.sig, cases[0].sig...)
	} else {
		var parts []string
		for _, cr := range cases {
			parts = append(parts, strings.Join(cr.sig, ","))
		}
		if s := strings.Join(parts, "|"); strings.Trim(s, "|,") != "" {
			out.sig = append(out.sig, "switch{"+s+"}")
		}
	}
	return out
}

// exprCollsNode collects collective calls under an arbitrary statement
// node (assignments, expression statements, declarations, defers).
// Direct Comm collectives contribute themselves; calls to loaded
// functions contribute their summary's inlined collective signature, so
// `if rank == 0 { helper() }` is flagged exactly like a rank-guarded
// Barrier when helper (transitively) issues one — and `helper()` on
// both arms still balances.
func exprCollsNode(pass *Pass, n ast.Node) flowResult {
	var out flowResult
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name := commMethodName(pass.Info, call); collectiveSet[name] {
			out.sig = append(out.sig, name)
			out.calls = append(out.calls, collCall{name: name, pos: call.Pos()})
			return true
		}
		callee, _ := pass.Prog.callee(pass.Info, call)
		if callee == nil {
			return true
		}
		if s := pass.Prog.collSummaryOf(callee.Obj); len(s.sig) > 0 {
			out.sig = append(out.sig, s.sig...)
			out.calls = append(out.calls, collCall{
				name: callName(callee.Obj),
				pos:  call.Pos(),
				seq:  s.sig,
				path: s.path,
			})
		}
		return true
	})
	return out
}

func exprColls(pass *Pass, e ast.Expr) flowResult {
	if e == nil {
		return flowResult{}
	}
	return exprCollsNode(pass, e)
}

// isRankExpr reports whether e mentions the calling rank: Comm.Rank(),
// the mpi-internal rank field, or a local derived from either.
func (w *collWalker) isRankExpr(e ast.Expr) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(x ast.Node) bool {
		if found {
			return false
		}
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if commMethodName(w.pass.Info, x) == "Rank" {
				found = true
			}
			// A call result is not considered rank-derived just because
			// an argument is: `err := write(file(rank))` varies with disk
			// state, not with which collective sequence the rank issues.
			return false
		case *ast.SelectorExpr:
			if isRankFieldSel(w.pass, x) {
				found = true
				return false
			}
		case *ast.Ident:
			if obj := identObj(w.pass.Info, x); obj != nil && w.rankObjs[obj] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isRankFieldSel reports whether sel is the mpi-internal `c.rank` field
// access (visible only when analyzing package mpi itself).
func isRankFieldSel(pass *Pass, sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "rank" {
		return false
	}
	tv, ok := pass.Info.Types[sel.X]
	if !ok {
		return false
	}
	return isNamed(tv.Type, mpiPath, "Comm")
}

// rankDerivedVars finds local variables (transitively) assigned from
// rank expressions, by iterating simple assignment propagation to a
// fixpoint.
func rankDerivedVars(pass *Pass, body *ast.BlockStmt) map[any]bool {
	objs := make(map[any]bool)
	probe := &collWalker{pass: pass, rankObjs: objs}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						id, ok := lhs.(*ast.Ident)
						if !ok {
							continue
						}
						obj := identObj(pass.Info, id)
						if obj == nil || objs[obj] {
							continue
						}
						if probe.isRankExpr(n.Rhs[i]) {
							objs[obj] = true
							changed = true
						}
					}
				}
			case *ast.ValueSpec:
				for i, id := range n.Names {
					if i >= len(n.Values) {
						break
					}
					obj := identObj(pass.Info, id)
					if obj == nil || objs[obj] {
						continue
					}
					if probe.isRankExpr(n.Values[i]) {
						objs[obj] = true
						changed = true
					}
				}
			}
			return true
		})
	}
	return objs
}
