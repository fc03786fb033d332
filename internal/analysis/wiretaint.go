package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// WireTaint tracks untrusted integers from decode sources to allocation
// and loop-bound sinks. A value is untrusted when it was produced by a
// method of a sticky reader (wireStreamKind) called in a package that
// decodes bytes from outside — one whose package clause carries a
// `//spio:untrusted-input` comment: internal/server, any fixture twin —
// by encoding/binary's integer readers applied to already-tainted bytes,
// or read from a struct field some decode path stored an untrusted value
// into. The codec is one type for files and frames, so the root is where
// it is called, not what it is; and it is explicit on purpose: a
// structural "anything wrapping io.Reader" rule would taint the format
// package's file reads and drown the serving tier's real exposure under
// every trusted writer/bench path in the module (76 findings when tried,
// ROADMAP item 5(b)). Taint is cleared only by a dominating bound check — a
// comparison against a trusted value (constant, parameter, len/cap) —
// or a min/max clamp. Sinks are make() size/cap arguments and for-loop
// bounds: the two places where a hostile 2⁶⁴-ish integer becomes an
// allocation or a spin before a single payload byte has arrived.
//
// The analysis is a whole-program fixpoint with three kinds of
// propagation: per-function summaries (taint in, taint out — so a
// helper like `func alloc(n int) []byte { return make([]byte, n) }`
// sinks its caller's taint), field-based tracking (a tainted store to
// Request.K taints every later read of .K, context-insensitively), and
// source rounds until no new tainted field appears. Soundness
// boundaries — any comparison counts as a bound check, taint does not
// survive unresolvable calls — are in DESIGN.md §8.3.
var WireTaint = &Analyzer{
	Name: "wiretaint",
	Doc:  "flags untrusted wire/decode integers reaching allocations or loop bounds without a bound check",
	Run:  runWireTaint,
}

// taintVal tracks where a value's bits may come from: a decode source
// (src) and/or the enclosing function's parameters (params, a bitmask
// by parameter index — the currency of the interprocedural summaries).
type taintVal struct {
	src    bool
	params uint64
}

func (v taintVal) or(o taintVal) taintVal {
	return taintVal{src: v.src || o.src, params: v.params | o.params}
}

func (v taintVal) zero() bool { return !v.src && v.params == 0 }

// taintSummary is a function's taint behaviour as seen by callers.
type taintSummary struct {
	// retSrc: some return value carries decode-source taint
	// unconditionally (the function is itself a source to callers).
	retSrc bool
	// retParams: parameters whose taint flows into a return value.
	retParams uint64
	// sinkParams: parameters that reach a sink (make size, loop bound)
	// without a bound check, keyed by parameter index.
	sinkParams map[int]*taintSink
	// paramFields: struct fields a parameter's taint is stored into
	// (NewGrid storing its dims parameter into Grid.Dims).
	paramFields map[int][]string
}

type taintSink struct {
	desc string
	path []string
}

func newTaintSummary() *taintSummary {
	return &taintSummary{sinkParams: make(map[int]*taintSink), paramFields: make(map[int][]string)}
}

// fingerprint summarizes the summary for fixpoint-stability checks
// (all components grow monotonically).
func (s *taintSummary) fingerprint() string {
	nf := 0
	for _, fs := range s.paramFields {
		nf += len(fs)
	}
	return fmt.Sprintf("%v/%x/%d/%d", s.retSrc, s.retParams, len(s.sinkParams), nf)
}

// taintRun is the state of one whole-program taint fixpoint.
type taintRun struct {
	prog *Program
	// sums are the propagated per-function summaries; fields the field
	// classes some decode path stored an untrusted value into.
	sums   map[*types.Func]*taintSummary
	fields map[string]bool
	// untrusted holds every package one of whose files carries a
	// //spio:untrusted-input comment on its package clause. A sticky
	// reader's methods called in such a package are the taint roots: the
	// marker is how decoding hostile bytes (the server's frames) is
	// distinguished from decoding trusted local files with the same codec.
	untrusted map[*Package]bool
	// report is set for the round whose findings are kept.
	report Reporter
}

// taintMaxRounds caps the fixpoint. The module converges in well under
// it (TestRepoClean prints the count); running into it is reported, not
// passed off as a clean result.
var taintMaxRounds = 12

// runWireTaint runs the whole-program taint fixpoint: repeat
// per-function walks until no summary and no tainted-field set changes,
// then walk once more, reporting.
func runWireTaint(prog *Program, report Reporter) {
	rounds, converged := taintFixpoint(prog, report)
	if !converged {
		report(prog.Pkgs[0].Files[0].Package, "taint fixpoint did not converge in %d rounds; results are incomplete", rounds)
	}
}

// taintFixpoint is runWireTaint's engine; it returns the number of
// propagation rounds taken and whether the last one changed nothing.
func taintFixpoint(prog *Program, report Reporter) (rounds int, converged bool) {
	t := &taintRun{
		prog:      prog,
		sums:      make(map[*types.Func]*taintSummary),
		fields:    make(map[string]bool),
		untrusted: make(map[*Package]bool),
	}
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			if commentHasUntrusted(file.Doc) {
				t.untrusted[pkg] = true
			}
		}
	}
	fns := make([]*FuncInfo, 0, len(prog.Funcs))
	for _, fi := range prog.Funcs {
		fns = append(fns, fi)
	}
	// Deterministic order keeps rounds (and finding order) stable.
	sort.Slice(fns, func(i, j int) bool { return fns[i].Decl.Pos() < fns[j].Decl.Pos() })

	for !converged && rounds < taintMaxRounds {
		rounds++
		converged = !t.round(fns)
	}
	// The summaries are final (or as good as the cap allows): one more
	// walk over them is the one that reports.
	t.report = report
	t.round(fns)
	return rounds, converged
}

// round walks every function once against the current summaries and
// reports whether any summary or tainted field class changed.
func (t *taintRun) round(fns []*FuncInfo) (changed bool) {
	for _, fi := range fns {
		old := ""
		if s := t.sums[fi.Obj]; s != nil {
			old = s.fingerprint()
		}
		w := &taintWalker{
			taintRun:    t,
			fi:          fi,
			info:        fi.Pkg.Info,
			fnName:      callName(fi.Obj),
			vals:        make(map[types.Object]taintVal),
			cleanFields: make(map[string]bool),
			sum:         newTaintSummary(),
			flagged:     make(map[token.Pos]bool),
		}
		for i, obj := range paramObjs(fi) {
			if obj != nil && i < 64 {
				w.vals[obj] = taintVal{params: 1 << i}
			}
		}
		w.walkStmts(fi.Decl.Body.List)
		if w.fieldChanged || w.sum.fingerprint() != old {
			changed = true
		}
		t.sums[fi.Obj] = w.sum
	}
	return changed
}

func commentHasUntrusted(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.Contains(c.Text, "spio:untrusted-input") {
			return true
		}
	}
	return false
}

// paramObjs lists a function's parameter objects in declaration order,
// receiver first for methods. Unnamed and blank parameters contribute a
// nil placeholder so indices stay aligned with call-site argument
// positions. Tracking the receiver as parameter 0 is what lets
// `grid.Cells()` return its receiver's taint — a method reading a
// tainted struct is a pass-through, not a laundering point.
func paramObjs(fi *FuncInfo) []types.Object {
	var out []types.Object
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			if len(field.Names) == 0 {
				out = append(out, nil)
				continue
			}
			for _, name := range field.Names {
				out = append(out, fi.Pkg.Info.Defs[name])
			}
		}
	}
	add(fi.Decl.Recv)
	add(fi.Decl.Type.Params)
	return out
}

// taintWalker interprets one function body, one fixpoint round.
type taintWalker struct {
	*taintRun
	fi     *FuncInfo
	info   *types.Info
	fnName string
	// vals is the local taint environment; cleanFields holds field
	// classes bound-checked in this function (reads of them evaluate
	// clean from the check onward).
	vals        map[types.Object]taintVal
	cleanFields map[string]bool
	sum         *taintSummary
	flagged     map[token.Pos]bool
	// fieldChanged notes a new globally-tainted field this round.
	fieldChanged bool
}

// flag reports one finding per position, in the reporting walk only.
func (w *taintWalker) flag(pos token.Pos, format string, args ...any) {
	if w.report == nil || w.flagged[pos] {
		return
	}
	w.flagged[pos] = true
	w.report(pos, format, args...)
}

// markFieldTaint records that a field class received tainted bits:
// source taint goes to the global set, parameter taint to the
// function's summary.
func (w *taintWalker) markFieldTaint(key string, val taintVal) {
	if key == "" || val.zero() {
		return
	}
	if val.src && !w.fields[key] {
		w.fields[key] = true
		w.fieldChanged = true
	}
	for i := 0; i < 64; i++ {
		if val.params&(1<<i) == 0 {
			continue
		}
		already := false
		for _, k := range w.sum.paramFields[i] {
			if k == key {
				already = true
				break
			}
		}
		if !already {
			w.sum.paramFields[i] = append(w.sum.paramFields[i], key)
		}
	}
}

// sinkHit handles tainted bits reaching a sink: source taint is a
// finding here, parameter taint becomes a summary entry so the finding
// surfaces at the caller passing untrusted data.
func (w *taintWalker) sinkHit(pos token.Pos, desc string, val taintVal, path []string) {
	if val.src {
		loc := ""
		if len(path) > 0 {
			loc = " (via " + strings.Join(path, " → ") + ")"
		}
		w.flag(pos, "%s reaches %s in %s without a dominating bound check — a hostile length becomes a huge allocation or spin%s",
			"untrusted decode value", desc, w.fnName, loc)
	}
	for i := 0; i < 64; i++ {
		if val.params&(1<<i) == 0 {
			continue
		}
		if _, ok := w.sum.sinkParams[i]; !ok {
			w.sum.sinkParams[i] = &taintSink{desc: desc, path: append([]string{w.fnName}, path...)}
		}
	}
}

func (w *taintWalker) walkStmts(stmts []ast.Stmt) {
	for _, st := range stmts {
		w.walkStmt(st)
	}
}

func (w *taintWalker) walkStmt(st ast.Stmt) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		w.eval(st.X)
	case *ast.AssignStmt:
		w.walkAssign(st)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				var val taintVal
				for _, v := range vs.Values {
					val = val.or(w.eval(v))
				}
				for _, name := range vs.Names {
					if obj := w.info.Defs[name]; obj != nil {
						w.vals[obj] = val
					}
				}
			}
		}
	case *ast.IfStmt:
		if st.Init != nil {
			w.walkStmt(st.Init)
		}
		w.eval(st.Cond)
		w.sanitizeCond(st.Cond)
		w.walkStmts(st.Body.List)
		switch e := st.Else.(type) {
		case *ast.BlockStmt:
			w.walkStmts(e.List)
		case *ast.IfStmt:
			w.walkStmt(e)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			w.walkStmt(st.Init)
		}
		if st.Cond != nil {
			w.checkLoopBound(st.Cond)
			w.eval(st.Cond)
		}
		w.walkStmts(st.Body.List)
		if st.Post != nil {
			w.walkStmt(st.Post)
		}
	case *ast.RangeStmt:
		w.eval(st.X)
		w.walkStmts(st.Body.List)
	case *ast.SwitchStmt:
		if st.Init != nil {
			w.walkStmt(st.Init)
		}
		if st.Tag != nil {
			w.eval(st.Tag)
		}
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				w.eval(e)
			}
			w.walkStmts(cc.Body)
		}
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			w.walkStmt(st.Init)
		}
		for _, c := range st.Body.List {
			w.walkStmts(c.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm != nil {
				w.walkStmt(cc.Comm)
			}
			w.walkStmts(cc.Body)
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			v := w.eval(e)
			if v.src {
				w.sum.retSrc = true
			}
			w.sum.retParams |= v.params
		}
	case *ast.SendStmt:
		w.eval(st.Chan)
		w.eval(st.Value)
	case *ast.BlockStmt:
		w.walkStmts(st.List)
	case *ast.LabeledStmt:
		w.walkStmt(st.Stmt)
	case *ast.DeferStmt:
		w.eval(st.Call)
	case *ast.GoStmt:
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			w.walkStmts(lit.Body.List) // captured locals keep their taint
		} else {
			w.eval(st.Call)
		}
	case *ast.IncDecStmt:
		w.eval(st.X)
	}
}

func (w *taintWalker) walkAssign(st *ast.AssignStmt) {
	if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
		// Multi-value call: one coarse value for every left-hand side.
		val := w.eval(st.Rhs[0])
		for _, l := range st.Lhs {
			w.assignTo(l, val, st.Tok)
		}
		return
	}
	for i, l := range st.Lhs {
		if i < len(st.Rhs) {
			w.assignTo(l, w.eval(st.Rhs[i]), st.Tok)
		}
	}
}

func (w *taintWalker) assignTo(lhs ast.Expr, val taintVal, tok token.Token) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := w.info.Defs[l]
		if obj == nil {
			obj = w.info.Uses[l]
		}
		if obj == nil {
			return
		}
		if tok != token.ASSIGN && tok != token.DEFINE {
			val = val.or(w.vals[obj]) // compound assignment mixes old bits in
		}
		w.vals[obj] = val
	case *ast.SelectorExpr:
		w.eval(l.X)
		w.markFieldTaint(w.fieldKeyOf(l), val)
	case *ast.IndexExpr:
		w.eval(l.X)
		w.eval(l.Index)
	case *ast.StarExpr:
		w.eval(l.X)
	}
}

// sanitizeCond treats a comparison between tainted and trusted
// operands as the bound check: every identifier and field read on the
// tainted side is considered clean from here on. (Parameter taint
// counts as trusted here — the caller vouches for its own bound — and
// this is exactly what lets wire.go's `if n > maxLen { fail }` clear
// n.) For-loop conditions never come through here; they are sinks.
func (w *taintWalker) sanitizeCond(cond ast.Expr) {
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
		default:
			return true
		}
		x, y := w.eval(be.X), w.eval(be.Y)
		if x.src && !y.src {
			w.clearExpr(be.X)
		}
		if y.src && !x.src {
			w.clearExpr(be.Y)
		}
		return true
	})
}

// clearExpr marks every identifier and field class mentioned in a
// bound-checked expression as clean.
func (w *taintWalker) clearExpr(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := w.info.Uses[n]; obj != nil {
				if v, ok := w.vals[obj]; ok && v.src {
					w.vals[obj] = taintVal{params: v.params}
				}
			}
		case *ast.SelectorExpr:
			if key := w.fieldKeyOf(n); key != "" {
				w.cleanFields[key] = true
			}
		}
		return true
	})
}

// checkLoopBound flags tainted operands in a for-loop condition.
func (w *taintWalker) checkLoopBound(cond ast.Expr) {
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
		default:
			return true
		}
		for _, side := range []ast.Expr{be.X, be.Y} {
			if v := w.eval(side); !v.zero() {
				w.sinkHit(side.Pos(), "a loop bound", v, nil)
			}
		}
		return true
	})
}

// eval computes an expression's taint, recording sink hits and field
// stores along the way.
func (w *taintWalker) eval(e ast.Expr) taintVal {
	switch e := e.(type) {
	case nil:
		return taintVal{}
	case *ast.Ident:
		if obj := w.info.Uses[e]; obj != nil {
			return w.vals[obj]
		}
		return taintVal{}
	case *ast.ParenExpr:
		return w.eval(e.X)
	case *ast.StarExpr:
		return w.eval(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND || e.Op == token.ARROW {
			w.eval(e.X)
			return taintVal{}
		}
		return w.eval(e.X)
	case *ast.BinaryExpr:
		x, y := w.eval(e.X), w.eval(e.Y)
		switch e.Op {
		case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ,
			token.LAND, token.LOR:
			return taintVal{} // booleans carry no size
		}
		return x.or(y)
	case *ast.SelectorExpr:
		base := w.eval(e.X)
		key := w.fieldKeyOf(e)
		if key != "" && w.fields[key] && !w.cleanFields[key] {
			return base.or(taintVal{src: true})
		}
		return base
	case *ast.IndexExpr:
		w.eval(e.Index)
		return w.eval(e.X)
	case *ast.SliceExpr:
		w.eval(e.Low)
		w.eval(e.High)
		w.eval(e.Max)
		return w.eval(e.X)
	case *ast.TypeAssertExpr:
		return w.eval(e.X)
	case *ast.CompositeLit:
		// A literal built from tainted parts is tainted as a value, but
		// does NOT mark its type's fields globally: `geom.Idx3{X: d.n()}`
		// poisons that one value, not every Idx3 in the module. Global
		// field taint comes only from field-write statements, which name
		// a long-lived struct the decode path owns.
		var val taintVal
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				val = val.or(w.eval(kv.Value))
				continue
			}
			val = val.or(w.eval(el))
		}
		return val
	case *ast.CallExpr:
		return w.evalCall(e)
	case *ast.FuncLit:
		// Not this schedule; literals are walked where they run (go) or
		// treated as opaque values otherwise.
		return taintVal{}
	default:
		return taintVal{}
	}
}

func (w *taintWalker) evalCall(call *ast.CallExpr) taintVal {
	// Conversion: T(x) keeps x's taint.
	if tv, ok := w.info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return w.eval(call.Args[0])
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := w.info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				for _, sizeArg := range call.Args[1:] {
					if v := w.eval(sizeArg); !v.zero() {
						w.sinkHit(sizeArg.Pos(), "a make() size", v, nil)
					}
				}
				return taintVal{}
			case "len", "cap":
				w.eval(call.Args[0])
				return taintVal{} // bounded by data that actually exists
			case "min", "max":
				var val taintVal
				sawClean := false
				for _, a := range call.Args {
					v := w.eval(a)
					if v.zero() {
						sawClean = true
					}
					val = val.or(v)
				}
				if sawClean {
					return taintVal{} // clamped against a trusted bound
				}
				return val
			case "append", "copy":
				var val taintVal
				for _, a := range call.Args {
					val = val.or(w.eval(a))
				}
				return val
			default:
				for _, a := range call.Args {
					w.eval(a)
				}
				return taintVal{}
			}
		}
	}
	// encoding/binary integer readers launder bytes into sizes: the
	// result carries whatever taint the input bytes do. They are
	// propagators, not roots — Uint64 over a locally-built buffer is
	// clean, the same call over conn-read bytes is not.
	if isBinaryIntReader(w.info, call) {
		var val taintVal
		for _, a := range call.Args {
			val = val.or(w.eval(a))
		}
		return val
	}
	// Source roots: a sticky reader's methods, in a package marked as
	// decoding outside input.
	if w.isDecoderSource(call) {
		for _, a := range call.Args {
			w.eval(a)
		}
		return taintVal{src: true}
	}
	// Resolved callee: apply its summary.
	var callee *types.Func
	var sum *taintSummary
	if cfi, _ := w.prog.callee(w.info, call); cfi != nil {
		callee = cfi.Obj
		sum = w.sums[callee]
	}
	if sum == nil {
		// Unknown or external: evaluate arguments for nested sinks, and
		// return clean — taint does not survive calls the analysis
		// cannot see (an under-approximation, documented).
		for _, a := range call.Args {
			w.eval(a)
		}
		return taintVal{}
	}
	calleeName := callName(callee)
	sig, _ := callee.Type().(*types.Signature)
	nParams := 0
	hasRecv := false
	if sig != nil {
		nParams = sig.Params().Len()
		hasRecv = sig.Recv() != nil
	}
	// Pair every taint-carrying input with its parameter index in the
	// callee's paramObjs numbering: receiver (if any) is 0, declared
	// parameters follow, the variadic tail collapses onto the last.
	type argPair struct {
		e ast.Expr
		j int
	}
	var pairs []argPair
	off := 0
	if hasRecv {
		off = 1
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			pairs = append(pairs, argPair{sel.X, 0})
		}
	}
	for a, arg := range call.Args {
		j := a
		if nParams > 0 && j >= nParams {
			j = nParams - 1
		}
		if nParams == 0 {
			w.eval(arg)
			continue
		}
		pairs = append(pairs, argPair{arg, j + off})
	}
	val := taintVal{src: sum.retSrc}
	for _, p := range pairs {
		av := w.eval(p.e)
		if av.zero() {
			continue
		}
		if sum.retParams&(1<<p.j) != 0 {
			val = val.or(av)
		}
		if sink, ok := sum.sinkParams[p.j]; ok {
			w.sinkHit(call.Pos(), sink.desc+" in "+calleeName, av, sink.path)
		}
		for _, fk := range sum.paramFields[p.j] {
			w.markFieldTaint(fk, av)
		}
	}
	return val
}

// fieldKeyOf names the field class a selector reads/writes:
// "pkg/path.Type.Field"; "" for non-field selections.
func (w *taintWalker) fieldKeyOf(sel *ast.SelectorExpr) string {
	s, ok := w.info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return ""
	}
	return fieldClassKey(s.Recv(), s.Obj().Name())
}

// fieldClassKey renders a (receiver type, field name) pair as the
// global field-taint key.
func fieldClassKey(t types.Type, field string) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + field
}

// isBinaryIntReader matches encoding/binary's integer readers:
// LittleEndian/BigEndian.UintNN and the varint decoders.
func isBinaryIntReader(info *types.Info, call *ast.CallExpr) bool {
	fn := funcObj(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "encoding/binary" {
		return false
	}
	switch fn.Name() {
	case "Uint16", "Uint32", "Uint64", "ReadUvarint", "ReadVarint", "Uvarint", "Varint":
		return true
	}
	return false
}

// isDecoderSource matches a sticky reader's methods called in a package
// marked as decoding outside input: every result of such a call is
// decode-source tainted (integers are hostile sizes, byte slices are
// hostile bytes for isBinaryIntReader to launder).
func (w *taintWalker) isDecoderSource(call *ast.CallExpr) bool {
	if !w.untrusted[w.fi.Pkg] {
		return false
	}
	fn := funcObj(w.info, call)
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	kind, ok := wireStreamKind(sig.Recv().Type())
	return ok && kind == 'r'
}
