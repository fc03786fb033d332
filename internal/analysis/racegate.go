package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// RaceGate is a RacerD-style consistent-lock data-race analyzer over
// struct fields. It infers the set of goroutine origins that can reach
// every function (the main goroutine, plus one origin per `go`
// statement, with "may run multiple instances" tracked for spawns in
// loops and spawns reachable from more than one goroutine), then runs
// the shared lock-set walker (lockset.go) in observing mode to collect,
// for every struct-field access, the locks held at the access and
// whether it went through sync/atomic.
//
// A field is flagged when two accesses — at least one a plain write —
// can run on different goroutines yet share no common lock: the
// *effective* lock set of an access is the locks held locally plus the
// locks held at every loaded call site of the enclosing function (a
// caller-lock-context fixpoint, so `evictLocked`-style helpers that
// rely on the caller's mutex stay clean). A separate check flags fields
// accessed both atomically and plainly: mixing the two defeats the
// atomics.
//
// Confinement idioms that make concurrent reachability safe are
// recognized and excluded (DESIGN.md §8.4):
//
//   - atomic: accesses through sync/atomic types or functions never
//     race with each other;
//   - ownership / init-before-spawn: accesses through a local the
//     function itself allocated (composite literal, new, make, a New*/
//     Open* constructor) are writes to a not-yet-shared object;
//   - channel hand-off: accesses through a local received from a
//     channel — the send synchronized the transfer.
//
// To keep the class-based field identity (one key per Type.field, all
// instances conflated) from drowning the output, a field is only
// examined when something signals concurrent intent: some access to it
// holds a lock (the consistent-lock criterion — "usually locked,
// here not" is the bug shape), or the owning struct declares a mutex,
// atomic, sync helper, or channel field. Plain data structs with no
// synchronization anywhere are the caller's responsibility and stay
// out of scope.
var RaceGate = &Analyzer{
	Name: "racegate",
	Doc:  "flags struct fields written from multiple goroutine origins without a consistent lock, and atomic/plain access mixes",
	Run:  runRaceGate,
}

// runRaceGate is the whole-program race analysis.
func runRaceGate(p *Program, report Reporter) {
	a := &raceAnalysis{
		prog:       p,
		report:     report,
		fnCtx:      make(map[*types.Func]*rgCtx),
		origins:    map[string]*rgOrigin{"main": {id: "main"}},
		fieldOwner: make(map[string]*types.Named),
		loaded:     make(map[string]bool),
	}
	for _, pkg := range p.Pkgs {
		a.loaded[pkg.Types.Path()] = true
	}
	a.buildContexts()
	a.propagateOrigins()
	a.computeMulti()
	a.computeLambda()
	a.evaluate()
}

// rgOrigin is one inferred goroutine origin: the main goroutine, or one
// `go` statement. multi marks origins that can run several instances
// concurrently (a spawn in a loop, or a spawn whose own function is
// reached from more than one goroutine).
type rgOrigin struct {
	id     string // "main" or "go@file:line"
	pos    token.Pos
	fnName string // display name of the spawning function
	inLoop bool
	multi  bool
}

// rgCtx is one analysis context: a declared function, or the body of a
// go-statement function literal (which runs as its own origin).
// Function literals not spawned by `go` merge into their enclosing
// context.
type rgCtx struct {
	name string
	fn   *types.Func // nil for go-literal contexts
	// origins is the set of origin ids whose goroutines can execute
	// this context; via records, per origin, the caller that first
	// propagated it here (nil at the origin's root), giving a
	// representative call path for diagnostics.
	origins map[string]bool
	via     map[string]*rgCtx
	// lambda is the caller lock context: locks held at *every* loaded
	// call site (top means "not yet constrained" during the fixpoint).
	lambda map[string]bool
	top    bool
	// seedRoot marks contexts callable from outside the loaded world
	// (exported, main, init): their lambda is pinned to the empty set.
	seedRoot bool

	accesses []*rgAccess
	calls    []rgCall
	spawns   []*rgSpawn
	inEdges  []rgInEdge
}

// rgAccess is one struct-field access.
type rgAccess struct {
	field  string // class key: pkgpath.Type.field
	write  bool
	atomic bool
	held   []string // lock classes held locally at the access (sorted)
	eff    map[string]bool
	pos    token.Pos
	ctx    *rgCtx
}

type rgCall struct {
	callee *types.Func
	held   []string
}

type rgInEdge struct {
	from *rgCtx
	held []string
}

type rgSpawn struct {
	origin  *rgOrigin
	rootFn  *types.Func // resolved `go f()` target, nil otherwise
	rootCtx *rgCtx      // `go func(){…}()` literal context, nil otherwise
}

// rootClass classifies what a local identifier is bound to, for the
// confinement pre-scan.
type rootClass int

const (
	rootShared rootClass = iota
	rootOwned            // fresh allocation: composite literal, new, make, constructor
	rootChanRecv
)

// rgPre is the per-function pre-scan: root classes for confinement and
// the loop spans for multi-instance spawn detection.
type rgPre struct {
	roots map[types.Object]rootClass
	loops [][2]token.Pos
}

type raceAnalysis struct {
	prog       *Program
	report     Reporter
	ctxs       []*rgCtx
	fnCtx      map[*types.Func]*rgCtx
	origins    map[string]*rgOrigin
	fieldOwner map[string]*types.Named
	loaded     map[string]bool
}

// buildContexts walks every loaded function with an observing lock-set
// walker and populates the contexts: accesses, resolved call edges with
// held sets, spawn sites, and go-literal sub-contexts.
func (a *raceAnalysis) buildContexts() {
	fis := make([]*FuncInfo, 0, len(a.prog.Funcs))
	for _, fi := range a.prog.Funcs {
		fis = append(fis, fi)
	}
	sort.Slice(fis, func(i, j int) bool {
		pi, pj := fis[i].Pkg.Types.Path(), fis[j].Pkg.Types.Path()
		if pi != pj {
			return pi < pj
		}
		return fis[i].Decl.Pos() < fis[j].Decl.Pos()
	})
	for _, fi := range fis {
		fn := fi.Obj
		c := &rgCtx{
			name:    callName(fn),
			fn:      fn,
			origins: make(map[string]bool),
			via:     make(map[string]*rgCtx),
		}
		a.ctxs = append(a.ctxs, c)
		a.fnCtx[fn] = c
	}
	for _, fi := range fis {
		c := a.fnCtx[fi.Obj]
		pre := a.preScan(fi)
		a.walkInto(c, fi, pre, fi.Decl.Body.List, nil)
	}
}

// walkInto runs one observing walk of stmts, attributing everything to
// ctx; go-statement literals recurse into fresh contexts of their own.
// held seeds the walker's lock set — nil for function bodies and
// goroutine roots, the capture-site set for nested literals.
func (a *raceAnalysis) walkInto(c *rgCtx, fi *FuncInfo, pre *rgPre, stmts []ast.Stmt, held []heldLock) {
	info := fi.Pkg.Info
	w := &lockWalker{
		prog:   a.prog,
		info:   info,
		fnName: c.name,
	}
	w.hooks = &raceHooks{
		access: func(sel *ast.SelectorExpr, write, atomicAcc bool, held []heldLock) {
			a.noteAccess(c, fi, pre, sel, write, atomicAcc, held)
		},
		call: func(call *ast.CallExpr, callee *types.Func, held []heldLock, deferred bool) {
			c.calls = append(c.calls, rgCall{callee: callee, held: heldKeys(held)})
		},
		goStmt: func(st *ast.GoStmt, held []heldLock) {
			a.noteSpawn(c, fi, pre, st)
		},
		funcLit: func(lit *ast.FuncLit, litHeld []heldLock) {
			// A literal that is not a go target runs on some schedule the
			// caller controls (synchronous callback, defer): its accesses
			// belong to the enclosing context, seeded with the capture
			// site's lock set. For the dominant idioms — deferred cleanup
			// registered after a deferred Unlock, and callbacks invoked
			// synchronously — that set is what the body actually runs
			// under; a closure stored and invoked after the locks drop is
			// a documented false-negative boundary (DESIGN §8.4).
			a.walkInto(c, fi, pre, lit.Body.List, litHeld)
		},
	}
	w.walkStmts(stmts, held)
}

// noteSpawn records one go statement: a new origin plus the spawned
// root it injects that origin into. Unresolvable targets (func values,
// method values) contribute nothing — the spawned body is invisible to
// the call graph, a documented false-negative boundary pinned by the
// callgraph fixture.
func (a *raceAnalysis) noteSpawn(c *rgCtx, fi *FuncInfo, pre *rgPre, st *ast.GoStmt) {
	pos := st.Pos()
	id := "go@" + a.shortPos(pos)
	o := a.origins[id]
	if o == nil {
		o = &rgOrigin{
			id:     id,
			pos:    pos,
			fnName: c.name,
			inLoop: pre.inLoop(pos),
		}
		a.origins[id] = o
	}
	sp := &rgSpawn{origin: o}
	if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
		lc := &rgCtx{
			name:    fmt.Sprintf("go-func@%s (in %s)", a.shortPos(pos), c.name),
			fn:      nil,
			origins: make(map[string]bool),
			via:     make(map[string]*rgCtx),
		}
		a.ctxs = append(a.ctxs, lc)
		sp.rootCtx = lc
		a.walkInto(lc, fi, pre, lit.Body.List, nil)
	} else if callee, _ := a.prog.callee(fi.Pkg.Info, st.Call); callee != nil {
		sp.rootFn = callee.Obj
	}
	c.spawns = append(c.spawns, sp)
}

// noteAccess filters and records one field access.
func (a *raceAnalysis) noteAccess(c *rgCtx, fi *FuncInfo, pre *rgPre, sel *ast.SelectorExpr, write, atomicAcc bool, held []heldLock) {
	info := fi.Pkg.Info
	selx := info.Selections[sel]
	if selx == nil || selx.Kind() != types.FieldVal {
		return
	}
	fobj, ok := selx.Obj().(*types.Var)
	if !ok {
		return
	}
	recv := selx.Recv()
	if ptr, isP := recv.(*types.Pointer); isP {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return
	}
	tobj := named.Obj()
	if tobj == nil || tobj.Pkg() == nil || !a.loaded[tobj.Pkg().Path()] {
		return
	}
	// Synchronization primitives are the locks, not the data: plain
	// mentions of mutex/atomic/sync-helper fields (receivers of Lock and
	// Add calls) are not accesses. Atomic operations keep their field.
	if !atomicAcc {
		ft := fobj.Type()
		if mutexTypeName(ft) != "" || atomicTypeName(ft) != "" || isSyncHelper(ft) {
			return
		}
	}
	// Confinement: an access through a local this function allocated
	// (not yet shared — init-before-spawn) or received from a channel
	// (the send was the hand-off) cannot race here.
	if root := rootIdent(sel.X); root != nil {
		if obj := identObj(info, root); obj != nil {
			switch pre.roots[obj] {
			case rootOwned, rootChanRecv:
				return
			}
		}
	}
	key := tobj.Pkg().Path() + "." + tobj.Name() + "." + fobj.Name()
	if a.fieldOwner[key] == nil {
		a.fieldOwner[key] = named
	}
	c.accesses = append(c.accesses, &rgAccess{
		field:  key,
		write:  write,
		atomic: atomicAcc,
		held:   heldKeys(held),
		pos:    sel.Pos(),
		ctx:    c,
	})
}

func heldKeys(held []heldLock) []string {
	if len(held) == 0 {
		return nil
	}
	out := make([]string, 0, len(held))
	for _, h := range held {
		out = append(out, h.key)
	}
	sort.Strings(out)
	return out
}

// rootIdent unwraps a field-access base expression to the identifier it
// is rooted in ("s.cache.entries" → s), or nil when the base is not a
// plain chain (call results, index of call, …).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch t := ast.Unparen(e).(type) {
		case *ast.Ident:
			return t
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.TypeAssertExpr:
			e = t.X
		default:
			return nil
		}
	}
}

// isSyncHelper reports whether t (after stripping pointers) is one of
// the sync package's coordination types.
func isSyncHelper(t types.Type) bool {
	for _, name := range []string{"WaitGroup", "Once", "Cond", "Map", "Pool"} {
		if isNamed(t, "sync", name) {
			return true
		}
	}
	return false
}

// preScan computes the per-function confinement classes and loop spans.
// The class map is shared by the function's literals: a captured local
// resolves to the same types.Object.
func (a *raceAnalysis) preScan(fi *FuncInfo) *rgPre {
	info := fi.Pkg.Info
	pre := &rgPre{roots: make(map[types.Object]rootClass)}
	note := func(id *ast.Ident, cls rootClass) {
		if id == nil || id.Name == "_" {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return
		}
		if old, seen := pre.roots[obj]; seen {
			// Sticky shared: one aliasing assignment makes the root
			// shared for good; otherwise the first class stands.
			if cls == rootShared && old != rootShared {
				pre.roots[obj] = rootShared
			}
			return
		}
		pre.roots[obj] = cls
	}
	classify := func(e ast.Expr) rootClass {
		switch e := ast.Unparen(e).(type) {
		case *ast.CompositeLit:
			return rootOwned
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
					return rootOwned
				}
			}
			if e.Op == token.ARROW {
				return rootChanRecv
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
				if b, isB := info.Uses[id].(*types.Builtin); isB && (b.Name() == "new" || b.Name() == "make") {
					return rootOwned
				}
			}
			if fn := funcObj(info, e); fn != nil && constructorName(fn.Name()) {
				return rootOwned
			}
		}
		return rootShared
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			pre.loops = append(pre.loops, [2]token.Pos{n.Body.Pos(), n.Body.End()})
		case *ast.RangeStmt:
			pre.loops = append(pre.loops, [2]token.Pos{n.Body.Pos(), n.Body.End()})
			if isChanType(info.Types[n.X].Type) {
				if id, ok := n.Key.(*ast.Ident); ok {
					note(id, rootChanRecv)
				}
				if id, ok := n.Value.(*ast.Ident); ok {
					note(id, rootChanRecv)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				rhs := n.Rhs[0]
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				note(id, classify(rhs))
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				if len(n.Values) > 0 {
					rhs := n.Values[0]
					if len(n.Values) == len(n.Names) {
						rhs = n.Values[i]
					}
					note(id, classify(rhs))
					continue
				}
				// var x T with a value type: x is a fresh object.
				if obj := info.Defs[id]; obj != nil {
					switch obj.Type().Underlying().(type) {
					case *types.Struct, *types.Array, *types.Basic:
						note(id, rootOwned)
					}
				}
			}
		}
		return true
	})
	return pre
}

func (pre *rgPre) inLoop(pos token.Pos) bool {
	for _, s := range pre.loops {
		if pos >= s[0] && pos < s[1] {
			return true
		}
	}
	return false
}

// constructorName reports whether a function name follows the fresh-
// allocation naming conventions the ownership heuristic trusts.
func constructorName(name string) bool {
	for _, p := range []string{"New", "new", "Open", "open", "Make"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// propagateOrigins seeds "main" at every context callable from outside
// the loaded world and flows origins along call and spawn edges to a
// fixpoint, recording a representative propagation parent per
// (context, origin) for diagnostics.
func (a *raceAnalysis) propagateOrigins() {
	// In-edges (needed for both seeding and the lambda fixpoint).
	spawnTargets := make(map[*rgCtx]bool)
	for _, c := range a.ctxs {
		for _, e := range c.calls {
			if t := a.fnCtx[e.callee]; t != nil {
				t.inEdges = append(t.inEdges, rgInEdge{from: c, held: e.held})
			}
		}
		for _, sp := range c.spawns {
			t := sp.rootCtx
			if t == nil && sp.rootFn != nil {
				t = a.fnCtx[sp.rootFn]
			}
			if t != nil {
				spawnTargets[t] = true
			}
		}
	}
	for _, c := range a.ctxs {
		if c.fn == nil {
			continue // go-literal contexts get their origin from the spawn
		}
		switch {
		case c.fn.Name() == "main" || c.fn.Name() == "init" || c.fn.Exported():
			c.seedRoot = true
		case len(c.inEdges) == 0 && !spawnTargets[c]:
			// Unexported, never called, never spawned in the loaded
			// world: it must be invoked dynamically (func value, test);
			// assume the main goroutine rather than leaving it dead.
			c.seedRoot = true
		}
		if c.seedRoot {
			c.origins["main"] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, c := range a.ctxs {
			if len(c.origins) == 0 {
				continue
			}
			for _, e := range c.calls {
				t := a.fnCtx[e.callee]
				if t == nil {
					continue
				}
				for o := range c.origins {
					if !t.origins[o] {
						t.origins[o] = true
						t.via[o] = c
						changed = true
					}
				}
			}
			for _, sp := range c.spawns {
				t := sp.rootCtx
				if t == nil && sp.rootFn != nil {
					t = a.fnCtx[sp.rootFn]
				}
				if t == nil {
					continue
				}
				if !t.origins[sp.origin.id] {
					t.origins[sp.origin.id] = true
					changed = true
				}
			}
		}
	}
}

// computeMulti marks origins that can run several instances at once: a
// spawn lexically inside a loop, or a spawn whose site is itself
// executed by more than one goroutine (counting multi origins twice).
func (a *raceAnalysis) computeMulti() {
	for changed := true; changed; {
		changed = false
		for _, c := range a.ctxs {
			for _, sp := range c.spawns {
				if sp.origin.multi {
					continue
				}
				if sp.origin.inLoop {
					sp.origin.multi = true
					changed = true
					continue
				}
				n := 0
				for o := range c.origins {
					if a.origins[o] != nil && a.origins[o].multi {
						n += 2
					} else {
						n++
					}
				}
				if n >= 2 {
					sp.origin.multi = true
					changed = true
				}
			}
		}
	}
}

// computeLambda runs the caller-lock-context fixpoint: lambda(ctx) is
// the set of locks held at every loaded call site (the intersection
// over in-edges of the caller's lambda plus the locks held at the
// site). Exported functions, main, init, and go-literal bodies are
// pinned to the empty set — the loaded call sites are not all their
// call sites. Sets only shrink, so the iteration terminates.
func (a *raceAnalysis) computeLambda() {
	for _, c := range a.ctxs {
		if c.fn == nil || c.seedRoot || len(c.inEdges) == 0 {
			c.lambda = map[string]bool{}
		} else {
			c.top = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, c := range a.ctxs {
			if !c.top && len(c.lambda) == 0 {
				continue // already empty; cannot shrink further
			}
			if c.fn == nil || c.seedRoot || len(c.inEdges) == 0 {
				continue // pinned
			}
			var acc map[string]bool
			accSet := false
			for _, e := range c.inEdges {
				if e.from.top {
					continue // unconstrained caller contributes nothing yet
				}
				contrib := make(map[string]bool, len(e.from.lambda)+len(e.held))
				for k := range e.from.lambda {
					contrib[k] = true
				}
				for _, k := range e.held {
					contrib[k] = true
				}
				if !accSet {
					acc = contrib
					accSet = true
					continue
				}
				for k := range acc {
					if !contrib[k] {
						delete(acc, k)
					}
				}
			}
			if !accSet {
				continue // every caller still top
			}
			if c.top {
				c.top = false
				c.lambda = acc
				changed = true
				continue
			}
			// Recompute can only shrink; detect a real change.
			if len(acc) != len(c.lambda) {
				c.lambda = acc
				changed = true
				continue
			}
			for k := range c.lambda {
				if !acc[k] {
					c.lambda = acc
					changed = true
					break
				}
			}
		}
	}
	for _, c := range a.ctxs {
		if c.top {
			// Unreachable cycles: no constraint ever arrived. Treat as
			// unprotected rather than inventing phantom locks.
			c.top = false
			c.lambda = map[string]bool{}
		}
	}
}

// evaluate groups the accesses by field and applies the two checks:
// atomic/plain mix, then the consistent-lock race criterion. One
// finding per field, reported at the offending plain access.
func (a *raceAnalysis) evaluate() {
	byField := make(map[string][]*rgAccess)
	var keys []string
	for _, c := range a.ctxs {
		if len(c.origins) == 0 {
			continue // unreached code cannot race
		}
		for _, acc := range c.accesses {
			acc.eff = make(map[string]bool, len(acc.held)+len(c.lambda))
			for _, k := range acc.held {
				acc.eff[k] = true
			}
			for k := range c.lambda {
				acc.eff[k] = true
			}
			if byField[acc.field] == nil {
				keys = append(keys, acc.field)
			}
			byField[acc.field] = append(byField[acc.field], acc)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		accs := byField[key]
		sort.Slice(accs, func(i, j int) bool { return accs[i].pos < accs[j].pos })
		var atomics, plains []*rgAccess
		for _, acc := range accs {
			if acc.atomic {
				atomics = append(atomics, acc)
			} else {
				plains = append(plains, acc)
			}
		}
		if a.checkMix(key, atomics, plains) {
			continue
		}
		a.checkRace(key, accs, plains)
	}
}

// checkMix flags a field accessed both atomically and plainly when the
// two sides can run concurrently and at least one writes. Reported at
// the plain access — that is the side defeating the atomics.
func (a *raceAnalysis) checkMix(key string, atomics, plains []*rgAccess) bool {
	if len(atomics) == 0 || len(plains) == 0 {
		return false
	}
	for _, p := range plains {
		for _, at := range atomics {
			if !p.write && !at.write {
				continue
			}
			if !a.concurrent(p, at) {
				continue
			}
			verb := "read"
			if p.write {
				verb = "write"
			}
			a.report(p.pos, "field %s is accessed both atomically and plainly: plain %s here in %s can run concurrently with the atomic access at %s in %s — the plain access defeats the atomic discipline; use the atomic API (or one lock) for every access",
				lockShort(key), verb, p.ctx.name, a.posOf(at), at.ctx.name)
			return true
		}
	}
	return false
}

// checkRace applies the consistent-lock criterion: among plain
// accesses, a write that can run concurrently with another access with
// disjoint effective lock sets is a race. Only fields with concurrent
// intent (a *write* under a lock somewhere, or a sync-carrying owner
// struct) are examined — a read that merely happens inside some locked
// region is not evidence the field is meant to be guarded, and counting
// it conflates pure-data structs (geometry values, wire records) whose
// instances the class-level field key cannot tell apart.
func (a *raceAnalysis) checkRace(key string, all, plains []*rgAccess) {
	lockEvidence := false
	for _, acc := range all {
		if acc.write && !acc.atomic && len(acc.eff) > 0 {
			lockEvidence = true
			break
		}
	}
	if !lockEvidence && !a.structHasSync(a.fieldOwner[key]) {
		return
	}
	// Report at the least-protected write: that is where the lock (or
	// the //spio:allow) belongs.
	var writes []*rgAccess
	for _, w := range plains {
		if w.write {
			writes = append(writes, w)
		}
	}
	sort.SliceStable(writes, func(i, j int) bool {
		if len(writes[i].eff) != len(writes[j].eff) {
			return len(writes[i].eff) < len(writes[j].eff)
		}
		return writes[i].pos < writes[j].pos
	})
	for _, w := range writes {
		for _, acc := range plains {
			if !a.concurrent(w, acc) || !disjoint(w.eff, acc.eff) {
				continue
			}
			a.reportRace(key, w, acc)
			return
		}
	}
}

func (a *raceAnalysis) reportRace(key string, w, acc *rgAccess) {
	wo, ao := a.pickOrigins(w, acc)
	if w == acc {
		a.report(w.pos, "field %s is written here in %s (%s) and %s runs concurrent instances — concurrent writes to the same field race with each other; no common lock protects them and the access is not atomic",
			lockShort(key), w.ctx.name, a.accessDesc(w, wo), a.originDesc(wo))
		return
	}
	verb := "read"
	if acc.write {
		verb = "written"
	}
	a.report(w.pos, "field %s is written here in %s (%s) and %s at %s in %s (%s); the accesses share no common lock and are not atomic — schedule-dependent data race",
		lockShort(key), w.ctx.name, a.accessDesc(w, wo), verb, a.posOf(acc), acc.ctx.name, a.accessDesc(acc, ao))
}

// concurrent reports whether two accesses can execute at the same time:
// they are reached from two distinct origins, or from one shared origin
// that runs multiple instances. The same access races with itself only
// through a multi origin.
func (a *raceAnalysis) concurrent(x, y *rgAccess) bool {
	if x == y {
		for o := range x.ctx.origins {
			if a.origins[o] != nil && a.origins[o].multi {
				return true
			}
		}
		return false
	}
	for o1 := range x.ctx.origins {
		for o2 := range y.ctx.origins {
			if o1 != o2 {
				return true
			}
			if a.origins[o1] != nil && a.origins[o1].multi {
				return true
			}
		}
	}
	return false
}

// pickOrigins chooses a deterministic pair of origins that witnesses
// the concurrency of (w, acc): two distinct ones when possible, else a
// shared multi origin for both sides.
func (a *raceAnalysis) pickOrigins(w, acc *rgAccess) (*rgOrigin, *rgOrigin) {
	wo := sortedKeys(w.ctx.origins)
	ao := sortedKeys(acc.ctx.origins)
	// Prefer witnessing with a go origin on the write side: "written by
	// the spawned handler, read by main" reads better than the reverse.
	for i := len(wo) - 1; i >= 0; i-- {
		for _, o2 := range ao {
			if wo[i] != o2 {
				return a.origins[wo[i]], a.origins[o2]
			}
		}
	}
	for _, o := range wo {
		if a.origins[o] != nil && a.origins[o].multi {
			return a.origins[o], a.origins[o]
		}
	}
	if len(wo) > 0 && len(ao) > 0 {
		return a.origins[wo[0]], a.origins[ao[0]]
	}
	return a.origins["main"], a.origins["main"]
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// structHasSync reports whether the struct under named declares any
// synchronization field (mutex, atomic, sync helper, channel): the
// signal that its fields are meant to be touched concurrently.
func (a *raceAnalysis) structHasSync(named *types.Named) bool {
	if named == nil {
		return false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		ft := st.Field(i).Type()
		if mutexTypeName(ft) != "" || atomicTypeName(ft) != "" || isSyncHelper(ft) || isChanType(ft) {
			return true
		}
	}
	return false
}

func disjoint(a, b map[string]bool) bool {
	for k := range a {
		if b[k] {
			return false
		}
	}
	return true
}

// accessDesc renders one access's lock and origin context for a
// diagnostic: "holding cache.fileCache.mu; from the main goroutine via
// Server.Snapshot → fileCache.Stats".
func (a *raceAnalysis) accessDesc(acc *rgAccess, o *rgOrigin) string {
	locks := "no lock held"
	if len(acc.eff) > 0 {
		short := make([]string, 0, len(acc.eff))
		for _, k := range sortedKeys(acc.eff) {
			short = append(short, lockShort(k))
		}
		locks = "holding " + strings.Join(short, ", ")
	}
	if o == nil {
		return locks
	}
	return fmt.Sprintf("%s; from %s via %s", locks, a.originDesc(o), a.pathTo(acc.ctx, o.id))
}

// originDesc renders one origin for a diagnostic.
func (a *raceAnalysis) originDesc(o *rgOrigin) string {
	if o == nil || o.id == "main" {
		return "the main goroutine"
	}
	d := fmt.Sprintf("the goroutine spawned at %s in %s", strings.TrimPrefix(o.id, "go@"), o.fnName)
	if o.inLoop {
		d += " (spawned in a loop)"
	} else if o.multi {
		d += " (multiple instances)"
	}
	return d
}

// pathTo reconstructs the representative call path along which origin
// reached ctx, innermost last.
func (a *raceAnalysis) pathTo(c *rgCtx, origin string) string {
	var names []string
	for cur := c; cur != nil && len(names) < 8; cur = cur.via[origin] {
		names = append(names, cur.name)
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " → ")
}

// posOf renders an access position as file:line using the shared fset.
func (a *raceAnalysis) posOf(acc *rgAccess) string {
	return a.shortPos(acc.pos)
}

func (a *raceAnalysis) shortPos(pos token.Pos) string {
	p := a.prog.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
