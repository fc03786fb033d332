package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"spio/internal/mpi"
)

// Shared lock-set machinery. The abstract held-set interpreter below
// was born inside lockorder (PR 6); racegate reuses it verbatim to
// learn which locks are held at every struct-field access, so the two
// analyzers can never disagree about what "holding a lock" means.
// A walker runs in one of two modes:
//
//   - reporting (hooks == nil): lockorder's original behaviour —
//     self-deadlock findings, held-across-blocking findings, and
//     acquisition-order edges;
//   - observing (hooks != nil): silent. No findings, no edges; instead
//     the hooks receive every struct-field access (with the held set
//     at that point, and whether the access went through sync/atomic),
//     every resolved call site (with the held set), every go statement,
//     and every function literal. racegate builds its access summaries
//     from exactly these events.

// raceHooks receives the events an observing walk emits.
type raceHooks struct {
	// access is called for each struct-field read or write. sel is the
	// field selection, write distinguishes stores (including element
	// stores into a field-held map/slice, delete, copy, and atomic
	// Store/Add/Swap/CAS), atomic marks sync/atomic operations, and held
	// is the lock set at the access.
	access func(sel *ast.SelectorExpr, write, atomic bool, held []heldLock)
	// call is called for each call that resolves to a loaded function.
	// For deferred calls, held is the set at the defer statement: in the
	// dominant Lock-plus-deferred-Unlock idiom the LIFO defer order runs
	// later-registered defers before the unlock, so the site's locks are
	// still held (an approximation — an explicit early Unlock is not
	// modelled).
	call func(call *ast.CallExpr, callee *types.Func, held []heldLock, deferred bool)
	// goStmt is called for each go statement, after its argument
	// expressions were scanned in the spawning goroutine.
	goStmt func(st *ast.GoStmt, held []heldLock)
	// funcLit is called for each function literal that is not the
	// target of a go statement (those go through goStmt). The literal
	// body is not walked by this walker; the hook owner decides.
	funcLit func(lit *ast.FuncLit, held []heldLock)
}

// heldLock is one element of the abstract held set during the
// per-function walk.
type heldLock struct {
	key   string
	write bool
	pos   token.Pos
}

// lockWalker runs the abstract held-set interpretation over one
// function body.
type lockWalker struct {
	prog   *Program
	info   *types.Info
	fnName string
	// sums are lockorder's per-function summaries and sink is where its
	// findings go; an observing walk has neither.
	sums map[*types.Func]*lockSummary
	sink Reporter
	// flagged dedups findings per position; blocked limits
	// held-across-blocking findings to one per lock per function.
	flagged map[token.Pos]bool
	blocked map[string]bool
	edges   []lockEdge
	// hooks switches the walker into silent observing mode (see the
	// package comment above).
	hooks *raceHooks
}

func (w *lockWalker) report(pos token.Pos, format string, args ...any) {
	if w.hooks != nil || w.flagged[pos] {
		return
	}
	w.flagged[pos] = true
	w.sink(pos, format, args...)
}

// walkStmts interprets stmts in order, threading the held-lock set
// through; the returned slice is the held set at fall-through.
func (w *lockWalker) walkStmts(stmts []ast.Stmt, held []heldLock) []heldLock {
	for _, st := range stmts {
		held = w.walkStmt(st, held)
	}
	return held
}

func copyHeld(held []heldLock) []heldLock {
	return append([]heldLock(nil), held...)
}

// mergeHeld unions fall-through states of sibling branches: a lock held
// on any arm is conservatively held after the join.
func mergeHeld(a, b []heldLock) []heldLock {
	out := copyHeld(a)
	for _, h := range b {
		found := false
		for _, g := range out {
			if g.key == h.key {
				found = true
				break
			}
		}
		if !found {
			out = append(out, h)
		}
	}
	return out
}

// terminates reports whether a statement list cannot fall through
// (trailing return or panic), so its held state is excluded from the
// branch merge.
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func (w *lockWalker) walkStmt(st ast.Stmt, held []heldLock) []heldLock {
	switch st := st.(type) {
	case *ast.ExprStmt:
		return w.scanExpr(st.X, held)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			held = w.scanExpr(e, held)
		}
		for _, e := range st.Lhs {
			if w.hooks != nil {
				held = w.scanWrite(e, held)
			} else {
				held = w.scanExpr(e, held)
			}
		}
		return held
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						held = w.scanExpr(e, held)
					}
				}
			}
		}
		return held
	case *ast.SendStmt:
		held = w.scanExpr(st.Value, held)
		w.blockingOp(st.Pos(), "channel send", held)
		return held
	case *ast.IncDecStmt:
		if w.hooks != nil {
			return w.scanWrite(st.X, held)
		}
		return w.scanExpr(st.X, held)
	case *ast.DeferStmt:
		// A deferred Unlock releases at return: for the rest of the walk
		// the lock stays held (which is the point — blocking under a
		// deferred unlock is still blocking under the lock). Deferred
		// Lock calls and other deferred work run outside the statement
		// order, so they are not interpreted.
		if _, ok := lockRelease(w.info, st.Call); ok {
			return held
		}
		if w.hooks != nil {
			if h2, ok := w.raceCall(st.Call, held); ok {
				return h2
			}
			if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
				w.hooks.funcLit(lit, held)
			} else if callee, _ := w.prog.callee(w.info, st.Call); callee != nil {
				w.hooks.call(st.Call, callee.Obj, held, true)
			}
		}
		for _, a := range st.Call.Args {
			held = w.scanExpr(a, held)
		}
		return held
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			held = w.scanExpr(e, held)
		}
		return held
	case *ast.IfStmt:
		if st.Init != nil {
			held = w.walkStmt(st.Init, held)
		}
		held = w.scanExpr(st.Cond, held)
		thenHeld := w.walkStmts(st.Body.List, copyHeld(held))
		elseHeld := copyHeld(held)
		elseTerm := false
		if st.Else != nil {
			switch e := st.Else.(type) {
			case *ast.BlockStmt:
				elseHeld = w.walkStmts(e.List, elseHeld)
				elseTerm = terminates(e.List)
			case *ast.IfStmt:
				elseHeld = w.walkStmt(e, elseHeld)
			}
		}
		switch {
		case terminates(st.Body.List) && elseTerm:
			return held // both arms leave; keep entry state for dead code after
		case terminates(st.Body.List):
			return elseHeld
		case elseTerm:
			return thenHeld
		default:
			return mergeHeld(thenHeld, elseHeld)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			held = w.walkStmt(st.Init, held)
		}
		if st.Cond != nil {
			held = w.scanExpr(st.Cond, held)
		}
		body := w.walkStmts(st.Body.List, copyHeld(held))
		if st.Post != nil {
			body = w.walkStmt(st.Post, body)
		}
		return mergeHeld(held, body)
	case *ast.RangeStmt:
		held = w.scanExpr(st.X, held)
		if isChanType(w.info.Types[st.X].Type) {
			w.blockingOp(st.Pos(), "range over channel", held)
		}
		body := w.walkStmts(st.Body.List, copyHeld(held))
		return mergeHeld(held, body)
	case *ast.SwitchStmt:
		if st.Init != nil {
			held = w.walkStmt(st.Init, held)
		}
		if st.Tag != nil {
			held = w.scanExpr(st.Tag, held)
		}
		out := copyHeld(held)
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				held = w.scanExpr(e, held)
			}
			arm := w.walkStmts(cc.Body, copyHeld(held))
			if !terminates(cc.Body) {
				out = mergeHeld(out, arm)
			}
		}
		return out
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			held = w.walkStmt(st.Init, held)
		}
		out := copyHeld(held)
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			arm := w.walkStmts(cc.Body, copyHeld(held))
			if !terminates(cc.Body) {
				out = mergeHeld(out, arm)
			}
		}
		return out
	case *ast.SelectStmt:
		if !selectHasDefault(st) {
			w.blockingOp(st.Pos(), "select", held)
		}
		out := copyHeld(held)
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			armHeld := copyHeld(held)
			if cc.Comm != nil {
				armHeld = w.walkCommStmt(cc.Comm, armHeld)
			}
			arm := w.walkStmts(cc.Body, armHeld)
			if !terminates(cc.Body) {
				out = mergeHeld(out, arm)
			}
		}
		return out
	case *ast.BlockStmt:
		return w.walkStmts(st.List, held)
	case *ast.LabeledStmt:
		return w.walkStmt(st.Stmt, held)
	case *ast.GoStmt:
		// The spawned goroutine runs on its own schedule; starting it
		// does not block. Its literal body is walked independently with
		// an empty held set (the caller's locks are not held there in
		// the blocking sense — holding them *is* visible via the data
		// the closure captures, which is the race detector's domain).
		if w.hooks != nil {
			for _, a := range st.Call.Args {
				held = w.scanExpr(a, held)
			}
			w.hooks.goStmt(st, held)
			return held
		}
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			w.walkStmts(lit.Body.List, nil)
		}
		return held
	default:
		return held
	}
}

// walkCommStmt interprets one select communication clause. The send or
// receive parks as part of the select itself — reported at the select
// when it has no default clause, and never when it does — so only the
// operand expressions are scanned, with the receive arrow stripped.
func (w *lockWalker) walkCommStmt(st ast.Stmt, held []heldLock) []heldLock {
	switch st := st.(type) {
	case *ast.SendStmt:
		held = w.scanExpr(st.Chan, held)
		return w.scanExpr(st.Value, held)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			held = w.scanExpr(stripArrow(e), held)
		}
		for _, e := range st.Lhs {
			if w.hooks != nil {
				held = w.scanWrite(e, held)
			} else {
				held = w.scanExpr(e, held)
			}
		}
		return held
	case *ast.ExprStmt:
		return w.scanExpr(stripArrow(st.X), held)
	default:
		return w.walkStmt(st, held)
	}
}

// stripArrow unwraps the receive operator off a comm-clause expression.
func stripArrow(e ast.Expr) ast.Expr {
	if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
		return u.X
	}
	return e
}

// scanExpr visits an expression in evaluation order, interpreting lock
// operations and blocking operations against the current held set.
func (w *lockWalker) scanExpr(e ast.Expr, held []heldLock) []heldLock {
	if e == nil {
		return held
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		if w.hooks != nil {
			if h2, ok := w.raceCall(e, held); ok {
				return h2
			}
		}
		for _, a := range e.Args {
			held = w.scanExpr(a, held)
		}
		held = w.scanExpr(e.Fun, held)
		return w.applyCall(e, held)
	case *ast.UnaryExpr:
		held = w.scanExpr(e.X, held)
		if e.Op == token.ARROW {
			w.blockingOp(e.Pos(), "channel receive", held)
		}
		return held
	case *ast.BinaryExpr:
		held = w.scanExpr(e.X, held)
		return w.scanExpr(e.Y, held)
	case *ast.ParenExpr:
		return w.scanExpr(e.X, held)
	case *ast.SelectorExpr:
		if w.hooks != nil && w.fieldSel(e) {
			w.hooks.access(e, false, false, held)
		}
		return w.scanExpr(e.X, held)
	case *ast.IndexExpr:
		held = w.scanExpr(e.X, held)
		return w.scanExpr(e.Index, held)
	case *ast.SliceExpr:
		held = w.scanExpr(e.X, held)
		held = w.scanExpr(e.Low, held)
		held = w.scanExpr(e.High, held)
		return w.scanExpr(e.Max, held)
	case *ast.StarExpr:
		return w.scanExpr(e.X, held)
	case *ast.TypeAssertExpr:
		return w.scanExpr(e.X, held)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			held = w.scanExpr(el, held)
		}
		return held
	case *ast.KeyValueExpr:
		return w.scanExpr(e.Value, held)
	case *ast.FuncLit:
		// The literal's body runs when the value is called, on a schedule
		// this walk does not model; an observing walk hands it to the
		// hook owner instead.
		if w.hooks != nil {
			w.hooks.funcLit(e, held)
		}
		return held
	default:
		// Identifiers and literals are inert.
		return held
	}
}

// fieldSel reports whether sel denotes a struct-field selection (as
// opposed to a method selection or a package qualifier).
func (w *lockWalker) fieldSel(sel *ast.SelectorExpr) bool {
	s := w.info.Selections[sel]
	return s != nil && s.Kind() == types.FieldVal
}

// scanWrite scans an assignment target for an observing walk,
// classifying stores through struct fields — including element stores
// into a field-held map or slice, which mutate the structure the field
// holds — as write accesses.
func (w *lockWalker) scanWrite(e ast.Expr, held []heldLock) []heldLock {
	switch t := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if w.fieldSel(t) {
			w.hooks.access(t, true, false, held)
			return w.scanExpr(t.X, held)
		}
	case *ast.IndexExpr:
		if fsel, ok := ast.Unparen(t.X).(*ast.SelectorExpr); ok && w.fieldSel(fsel) {
			w.hooks.access(fsel, true, false, held)
			held = w.scanExpr(fsel.X, held)
			return w.scanExpr(t.Index, held)
		}
	}
	return w.scanExpr(e, held)
}

// raceCall intercepts, for an observing walk, the calls the race
// analysis classifies itself: sync/atomic operations (methods on
// atomic-wrapper fields and package-level atomic functions applied to
// &field) and the builtins that write through a field (delete, copy).
// It reports the access through the hook and returns ok when the call
// was fully consumed.
func (w *lockWalker) raceCall(call *ast.CallExpr, held []heldLock) ([]heldLock, bool) {
	// Method on an atomic wrapper: s.stats.requests.Add(1) — the
	// receiver field is the accessed location; Load reads, everything
	// else (Store, Add, Swap, CompareAndSwap, Or, And) writes.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if atomicTypeName(w.info.Types[sel.X].Type) != "" {
			if fsel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok && w.fieldSel(fsel) {
				w.hooks.access(fsel, sel.Sel.Name != "Load", true, held)
				held = w.scanExpr(fsel.X, held)
			} else {
				held = w.scanExpr(sel.X, held)
			}
			for _, a := range call.Args {
				held = w.scanExpr(a, held)
			}
			return held, true
		}
	}
	// Package-level form: atomic.AddInt64(&s.n, 1), atomic.LoadInt64(&s.n).
	if fn := funcObj(w.info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" {
		if len(call.Args) > 0 {
			if u, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr); ok && u.Op == token.AND {
				if fsel, ok := ast.Unparen(u.X).(*ast.SelectorExpr); ok && w.fieldSel(fsel) {
					w.hooks.access(fsel, !strings.HasPrefix(fn.Name(), "Load"), true, held)
					held = w.scanExpr(fsel.X, held)
				}
			}
			for _, a := range call.Args[1:] {
				held = w.scanExpr(a, held)
			}
		}
		return held, true
	}
	// delete(s.m, k) and copy(s.buf, src) write through their first
	// argument.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && len(call.Args) > 0 {
		if b, isB := w.info.Uses[id].(*types.Builtin); isB && (b.Name() == "delete" || b.Name() == "copy") {
			if fsel, ok := ast.Unparen(call.Args[0]).(*ast.SelectorExpr); ok && w.fieldSel(fsel) {
				w.hooks.access(fsel, true, false, held)
				held = w.scanExpr(fsel.X, held)
				for _, a := range call.Args[1:] {
					held = w.scanExpr(a, held)
				}
				return held, true
			}
		}
	}
	return held, false
}

// applyCall interprets one call against the held set: lock/unlock,
// cond.Wait, direct blocking calls, and summarized callees.
func (w *lockWalker) applyCall(call *ast.CallExpr, held []heldLock) []heldLock {
	if key, write, ok := lockAcquire(w.info, call); ok {
		for _, h := range held {
			if h.key == key && (h.write || write) {
				w.report(call.Pos(), "%s re-acquires %s already held since %s (self-deadlock: sync mutexes are not reentrant)",
					w.fnName, lockShort(key), w.pos(h.pos))
				return held
			}
		}
		// Record order edges against everything currently held.
		if w.hooks == nil {
			for _, h := range held {
				w.edges = append(w.edges, lockEdge{pos: call.Pos(), fn: w.fnName, from: h.key, to: key})
			}
		}
		return append(copyHeld(held), heldLock{key: key, write: write, pos: call.Pos()})
	}
	if key, ok := lockRelease(w.info, call); ok {
		out := held[:0:0]
		removed := false
		for _, h := range held {
			if !removed && h.key == key {
				removed = true
				continue
			}
			out = append(out, h)
		}
		// Releasing a lock acquired elsewhere (hand-off idioms) is not
		// interpreted; the set is simply unchanged.
		if !removed {
			return held
		}
		return out
	}
	if isCondWait(w.info, call) {
		// Cond.Wait releases its own mutex while parked; which held
		// lock that is cannot be resolved statically, so no
		// held-across finding is raised here. The enclosing function's
		// summary still says "may block", which flags callers that hold
		// *another* lock across it.
		return held
	}
	if desc, ok := blockingCall(w.info, call); ok {
		w.blockingOp(call.Pos(), desc, held)
		return held
	}
	callee, _ := w.prog.callee(w.info, call)
	if callee == nil {
		return held
	}
	if w.hooks != nil {
		w.hooks.call(call, callee.Obj, held, false)
		return held
	}
	sum := w.sums[callee.Obj]
	calleeName := callName(callee.Obj)
	// Self-deadlock through a helper: the callee may acquire a lock
	// class we already hold.
	for _, h := range held {
		if a, ok := sum.acquires[h.key]; ok && (h.write || a.write) {
			w.report(call.Pos(), "%s calls %s while holding %s, and the callee re-acquires it (self-deadlock; via %s)",
				w.fnName, calleeName, lockShort(h.key), strings.Join(a.path, " → "))
		}
	}
	// Order edges through the helper.
	for _, h := range held {
		for key := range sum.acquires {
			if key == h.key {
				continue
			}
			w.edges = append(w.edges, lockEdge{pos: call.Pos(), fn: w.fnName, from: h.key, to: key})
		}
	}
	if sum.blocks != nil && len(held) > 0 {
		w.blockingCallOp(call.Pos(), sum.blocks, held)
	}
	return held
}

// blockingOp reports held locks at a direct blocking operation.
func (w *lockWalker) blockingOp(pos token.Pos, desc string, held []heldLock) {
	if w.hooks != nil || len(held) == 0 {
		return
	}
	h := held[len(held)-1]
	if w.blocked[h.key] {
		return
	}
	w.blocked[h.key] = true
	w.report(pos, "%s holds %s (acquired at %s) across %s — a slow or stuck peer stalls every other acquirer",
		w.fnName, lockShort(h.key), w.pos(h.pos), desc)
}

// blockingCallOp reports held locks at a call whose summary may block.
func (w *lockWalker) blockingCallOp(pos token.Pos, b *lockBlock, held []heldLock) {
	if w.hooks != nil {
		return
	}
	h := held[len(held)-1]
	if w.blocked[h.key] {
		return
	}
	w.blocked[h.key] = true
	w.report(pos, "%s holds %s (acquired at %s) across a call that may block on %s (via %s)",
		w.fnName, lockShort(h.key), w.pos(h.pos), b.desc, strings.Join(b.path, " → "))
}

func (w *lockWalker) pos(p token.Pos) string {
	return w.prog.Fset.Position(p).String()
}

// --- lock and blocking-operation recognition ---

// mutexTypeName returns "Mutex" or "RWMutex" when t (after stripping
// pointers) is the sync type, else "".
func mutexTypeName(t types.Type) string {
	for _, name := range []string{"Mutex", "RWMutex"} {
		if isNamed(t, "sync", name) {
			return name
		}
	}
	return ""
}

// atomicTypeName returns the sync/atomic wrapper type's name (Bool,
// Int32, Int64, Uint32, Uint64, Uintptr, Pointer, Value) when t (after
// stripping pointers) is one, else "".
func atomicTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
		return ""
	}
	return obj.Name()
}

// lockAcquire matches mu.Lock / mu.RLock / mu.TryLock on a sync mutex
// and returns the lock's class key. write distinguishes exclusive
// acquisition from read acquisition.
func lockAcquire(info *types.Info, call *ast.CallExpr) (key string, write bool, ok bool) {
	name, recv, okc := mutexCall(info, call)
	if !okc {
		return "", false, false
	}
	switch name {
	case "Lock", "TryLock":
		write = true
	case "RLock", "TryRLock":
		write = false
	default:
		return "", false, false
	}
	key = lockKey(info, recv)
	if key == "" {
		return "", false, false
	}
	return key, write, true
}

// lockRelease matches mu.Unlock / mu.RUnlock.
func lockRelease(info *types.Info, call *ast.CallExpr) (key string, ok bool) {
	name, recv, okc := mutexCall(info, call)
	if !okc {
		return "", false
	}
	if name != "Unlock" && name != "RUnlock" {
		return "", false
	}
	key = lockKey(info, recv)
	if key == "" {
		return "", false
	}
	return key, true
}

// mutexCall decomposes a method call on a sync.Mutex/RWMutex value
// into (method name, receiver expression).
func mutexCall(info *types.Info, call *ast.CallExpr) (name string, recv ast.Expr, ok bool) {
	sel, okSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !okSel {
		return "", nil, false
	}
	t := info.Types[sel.X].Type
	if t == nil || mutexTypeName(t) == "" {
		return "", nil, false
	}
	return sel.Sel.Name, sel.X, true
}

// lockKey names the lock *class* a receiver expression denotes:
//
//   - a struct field ("x.mu", "s.cache.mu"): the owning named type plus
//     the field name — "spio/internal/server.Server.mu";
//   - a package-level variable: "pkg/path.name";
//   - a local variable: "pkg/path.func:name" (function-scoped, so
//     same-named locals in different functions stay distinct).
//
// Identity by class (not instance) is what makes the cross-function
// order graph meaningful; the instance-aliasing imprecision it brings
// is documented in DESIGN.md §8.3.
func lockKey(info *types.Info, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		base := info.Types[e.X].Type
		if base == nil {
			return ""
		}
		if ptr, ok := base.(*types.Pointer); ok {
			base = ptr.Elem()
		}
		if named, ok := base.(*types.Named); ok && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + e.Sel.Name
		}
		return ""
	case *ast.Ident:
		obj := identObj(info, e)
		if obj == nil || obj.Pkg() == nil {
			return ""
		}
		if obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name()
		}
		// Local: qualify by position so distinct locals do not collide
		// across functions (the scope pointer is not stable across
		// loads, the declaration offset is).
		return fmt.Sprintf("%s.local:%s@%d", obj.Pkg().Path(), obj.Name(), obj.Pos())
	default:
		return ""
	}
}

// isCondWait matches sync.Cond.Wait.
func isCondWait(info *types.Info, call *ast.CallExpr) bool {
	return methodOn(info, call, "sync", "Cond", "Wait")
}

// collectiveSet is the machine-readable collective list shared with the
// runtime guard: a collective blocks until every rank has entered it.
var collectiveSet = func() map[string]bool {
	m := make(map[string]bool)
	for _, name := range mpi.CollectiveMethods() {
		m[name] = true
	}
	return m
}()

// blockingCall classifies calls that park the goroutine: WaitGroup
// waits, collective/point-to-point communication on mpi.Comm, net.Conn
// I/O (directly or as an argument — the conn threaded into a frame
// writer blocks just the same), and time.Sleep.
func blockingCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	if methodOn(info, call, "sync", "WaitGroup", "Wait") {
		return "WaitGroup.Wait", true
	}
	if pkgFunc(info, call, "time", "Sleep") {
		return "time.Sleep", true
	}
	if name := commMethodName(info, call); name != "" {
		if collectiveSet[name] {
			return "collective Comm." + name, true
		}
		switch name {
		case "Send", "Recv", "SendRecv", "Probe":
			return "Comm." + name, true
		}
	}
	// net.Conn I/O: a method on a conn, or a conn passed into any
	// non-builtin call (fr.writeTo(conn) blocks on the socket exactly
	// like conn.Write; append(conns, c) does not).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if t := info.Types[sel.X].Type; t != nil && isNetConn(t) {
			return "net.Conn." + sel.Sel.Name, true
		}
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			return "", false
		}
	}
	for _, arg := range call.Args {
		if t := info.Types[arg].Type; t != nil && isNetConn(t) {
			return "net.Conn I/O", true
		}
	}
	return "", false
}

// isNetConn reports whether t is net.Conn or a concrete net conn type.
func isNetConn(t types.Type) bool {
	for _, name := range []string{"Conn", "TCPConn", "UnixConn", "UDPConn"} {
		if isNamed(t, "net", name) {
			return true
		}
	}
	return false
}

// isChanType reports whether t is a channel type.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// selectHasDefault reports whether a select statement has a default
// clause (making it non-blocking).
func selectHasDefault(st *ast.SelectStmt) bool {
	for _, c := range st.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
