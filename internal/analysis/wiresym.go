package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// WireSym checks writer/reader symmetry of every byte contract framed
// with internal/binio: the file headers, the frames of the serving
// protocol, the messages ranks exchange during a write. A field written
// u64 but read u32, written before a sibling but read after it, or
// written and never read, silently corrupts everything that crosses the
// asymmetry. The runtime round-trip tests only cover the values they
// happen to write; wiresym makes the symmetry a static contract (the
// position scda takes: a serial-equivalent format is a statically
// checkable writer/reader pact).
//
// For every package-level function pair matched by name convention —
// encodeX/decodeX, EncodeX/DecodeX, WriteX/ReadX, WriteX/OpenX and the
// unexported spellings — the analyzer extracts the ordered sequence of
// fixed-width field operations each side performs on a sticky writer or
// reader (wireStreamKind: binio's Writer and Reader, or a package's own
// writer/reader): U8, U32, U64, I64, F64, Uvarint, Str, Bytes (and its
// chunked spellings, the writer's Lend and the reader's Fill), Vec3,
// Box, Idx3, in either case. Extraction is interprocedural over the
// loaded call graph:
//
//   - a call passing a writer/reader to a helper splices the helper's
//     op stream in place (so encodeSchema's fields appear inside
//     WriteMeta's stream exactly where the call sits);
//   - a call to a loaded function with no writer/reader argument
//     splices that function's whole stream (so OpenDataFile inherits
//     readDataFileHeader's reads);
//   - the pre-encode idiom — encode the body into a buffer with one
//     writer, then write magic/version/CRC and the buffer with another
//     — is stitched: a bytes() of a buffer another writer wraps
//     substitutes that writer's stream.
//
// Control flow is canonicalized like collorder's signatures: loop
// bodies collapse to for{...}, both arms of an if are kept as
// if{then|else} after factoring their common prefix (so "write the
// flag then branch" and "branch on the flag just read" compare equal),
// and branches with no field operations vanish. Byte-slice writes
// compare lengths when both are compile-time constants (the magic).
//
// A pair is compared only when both streams are non-empty and at least
// one side performs field operations directly (not only through
// splices): that keeps high-level wrappers that merely call into the
// format package out of the comparison.
var WireSym = &Analyzer{
	Name: "wiresym",
	Doc:  "flags width/order/count asymmetries between paired writer/reader functions of the on-disk format",
	Run:  perPackage(runWireSym),
}

// wireOps maps sticky writer/reader method names, lower-cased, to
// canonical field tokens. Lend and Fill move the same bytes as Bytes
// does, chunk by chunk; boxv is a local reader's spelling of box.
var wireOps = map[string]string{
	"bytes":   "bytes",
	"lend":    "bytes",
	"fill":    "bytes",
	"u8":      "u8",
	"u16":     "u16",
	"u32":     "u32",
	"u64":     "u64",
	"i64":     "i64",
	"f32":     "f32",
	"f64":     "f64",
	"uvarint": "uvarint",
	"varint":  "varint",
	"str":     "str",
	"vec3":    "vec3",
	"box":     "box",
	"boxv":    "box",
	"idx3":    "idx3",
}

// wireTok is one canonical field operation (or a composite like
// "for{u8,u32}").
type wireTok struct {
	name string
	pos  token.Pos
	// ref is set on "@buf" stitch markers: the writer variable whose
	// stream replaces the marker (the pre-encode idiom).
	ref types.Object
}

// wireSummary is a function's ordered field-operation streams, one per
// direction.
type wireSummary struct {
	w, r []wireTok
	// directW/directR report that the function performs field ops on a
	// writer/reader itself rather than only through spliced callees.
	directW, directR bool
}

// wireItem is one extracted operation attributed to a stream variable.
type wireItem struct {
	obj    types.Object // the writer/reader variable; nil = anonymous
	kind   byte         // 'w' or 'r'
	tok    wireTok
	direct bool
}

// wireStreamKind classifies a type as sticky writer or reader — the one
// statement of the idiom, for wiresym and wiretaint alike: a (pointer to
// a) named type that is internal/binio's Writer or Reader, or a package's
// own unexported writer or reader (the analyzer fixtures' stand-ins).
func wireStreamKind(t types.Type) (byte, bool) {
	if t == nil {
		return 0, false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return 0, false
	}
	obj := named.Obj()
	if obj.Exported() && (obj.Pkg() == nil || obj.Pkg().Path() != binioPath) {
		return 0, false
	}
	switch strings.ToLower(obj.Name()) {
	case "writer":
		return 'w', true
	case "reader":
		return 'r', true
	}
	return 0, false
}

// wireSummaryOf computes fn's field-operation streams, memoized on the
// program. Cycles degrade to an empty summary.
func (p *Program) wireSummaryOf(fn *types.Func) *wireSummary {
	if s, ok := p.wireSums[fn]; ok {
		return s
	}
	fi, ok := p.Funcs[fn]
	if !ok {
		return &wireSummary{}
	}
	if p.wireVisiting[fn] {
		return &wireSummary{}
	}
	p.wireVisiting[fn] = true
	defer delete(p.wireVisiting, fn)

	x := &wireExtractor{prog: p, fi: fi, wraps: wireWraps(fi)}
	items := x.walkStmts(fi.Decl.Body.List)
	s := stitchWire(items)
	p.wireSums[fn] = s
	return s
}

// wireWraps maps each sticky-writer/reader variable created in fi's
// body to the buffer variable it wraps (`e := newWriter(&body)` maps
// e's object to body's object), for the pre-encode stitch.
func wireWraps(fi *FuncInfo) map[types.Object]types.Object {
	info := fi.Pkg.Info
	wraps := make(map[types.Object]types.Object)
	record := func(lhs ast.Expr, rhs ast.Expr) {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return
		}
		fnObj := funcObj(info, call)
		if fnObj == nil {
			return
		}
		switch fnObj.Name() {
		case "newWriter", "NewWriter", "newReader", "NewReader":
		default:
			return
		}
		streamObj := identObj(info, lhs)
		if streamObj == nil {
			return
		}
		arg := ast.Unparen(call.Args[0])
		if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
			arg = ast.Unparen(u.X)
		}
		if bufObj := identObj(info, arg); bufObj != nil {
			wraps[streamObj] = bufObj
		}
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i := range n.Names {
				if i < len(n.Values) {
					record(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	return wraps
}

// wireExtractor walks one function body collecting wireItems in source
// order.
type wireExtractor struct {
	prog  *Program
	fi    *FuncInfo
	wraps map[types.Object]types.Object
}

func (x *wireExtractor) walkStmts(stmts []ast.Stmt) []wireItem {
	var out []wireItem
	for _, s := range stmts {
		out = append(out, x.walkStmt(s)...)
	}
	return out
}

func (x *wireExtractor) walkStmt(s ast.Stmt) []wireItem {
	switch s := s.(type) {
	case nil:
		return nil
	case *ast.BlockStmt:
		return x.walkStmts(s.List)
	case *ast.LabeledStmt:
		return x.walkStmt(s.Stmt)
	case *ast.IfStmt:
		var out []wireItem
		out = append(out, x.walkStmt(s.Init)...)
		out = append(out, x.exprItems(s.Cond)...)
		then := x.walkStmts(s.Body.List)
		var els []wireItem
		if s.Else != nil {
			els = x.walkStmt(s.Else)
		}
		return append(out, mergeBranches(s.Pos(), "if", [][]wireItem{then, els})...)
	case *ast.ForStmt:
		var out []wireItem
		out = append(out, x.walkStmt(s.Init)...)
		out = append(out, x.exprItems(s.Cond)...)
		inner := x.walkStmts(s.Body.List)
		inner = append(inner, x.walkStmt(s.Post)...)
		return append(out, wrapLoop(s.Pos(), inner)...)
	case *ast.RangeStmt:
		return wrapLoop(s.Pos(), x.walkStmts(s.Body.List))
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return x.walkSwitch(s)
	default:
		return x.exprItems(s)
	}
}

func (x *wireExtractor) walkSwitch(s ast.Stmt) []wireItem {
	var out []wireItem
	var body *ast.BlockStmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		out = append(out, x.walkStmt(s.Init)...)
		out = append(out, x.exprItems(s.Tag)...)
		body = s.Body
	case *ast.TypeSwitchStmt:
		out = append(out, x.walkStmt(s.Init)...)
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	var arms [][]wireItem
	for _, cc := range body.List {
		switch cl := cc.(type) {
		case *ast.CaseClause:
			arms = append(arms, x.walkStmts(cl.Body))
		case *ast.CommClause:
			arms = append(arms, x.walkStmts(cl.Body))
		}
	}
	return append(out, mergeBranches(s.Pos(), "switch", arms)...)
}

// mergeBranches canonicalizes a multi-way branch per stream: the common
// prefix of all arms is emitted unconditionally, the remainders become
// one "if{a|b}" / "switch{a|b|c}" token, and branches that agree (or
// are all empty) dissolve entirely.
func mergeBranches(pos token.Pos, label string, arms [][]wireItem) []wireItem {
	type key struct {
		obj  types.Object
		kind byte
	}
	var order []key
	seen := make(map[key]bool)
	byArm := make([]map[key][]wireTok, len(arms))
	direct := make(map[key]bool)
	for i, arm := range arms {
		byArm[i] = make(map[key][]wireTok)
		for _, it := range arm {
			k := key{it.obj, it.kind}
			if !seen[k] {
				seen[k] = true
				order = append(order, k)
			}
			byArm[i][k] = append(byArm[i][k], it.tok)
			direct[k] = direct[k] || it.direct
		}
	}
	var out []wireItem
	for _, k := range order {
		toks := make([][]wireTok, len(arms))
		for i := range arms {
			toks[i] = byArm[i][k]
		}
		// Factor the common prefix across all arms.
		for {
			var first *wireTok
			same := true
			for _, ts := range toks {
				if len(ts) == 0 {
					same = false
					break
				}
				if first == nil {
					first = &ts[0]
				} else if ts[0].name != first.name {
					same = false
					break
				}
			}
			if !same || first == nil {
				break
			}
			out = append(out, wireItem{obj: k.obj, kind: k.kind, tok: *first, direct: direct[k]})
			for i := range toks {
				toks[i] = toks[i][1:]
			}
		}
		allEmpty := true
		allEqual := true
		for i, ts := range toks {
			if len(ts) > 0 {
				allEmpty = false
			}
			if i > 0 && tokNames(ts) != tokNames(toks[0]) {
				allEqual = false
			}
		}
		if allEmpty {
			continue
		}
		if allEqual {
			for _, t := range toks[0] {
				out = append(out, wireItem{obj: k.obj, kind: k.kind, tok: t, direct: direct[k]})
			}
			continue
		}
		parts := make([]string, len(toks))
		for i, ts := range toks {
			parts[i] = tokNames(ts)
		}
		out = append(out, wireItem{
			obj:    k.obj,
			kind:   k.kind,
			tok:    wireTok{name: label + "{" + strings.Join(parts, "|") + "}", pos: pos},
			direct: direct[k],
		})
	}
	return out
}

// wrapLoop collapses a loop body to one for{...} token per stream.
func wrapLoop(pos token.Pos, inner []wireItem) []wireItem {
	type key struct {
		obj  types.Object
		kind byte
	}
	var order []key
	grouped := make(map[key][]wireTok)
	direct := make(map[key]bool)
	for _, it := range inner {
		k := key{it.obj, it.kind}
		if _, ok := grouped[k]; !ok {
			order = append(order, k)
		}
		grouped[k] = append(grouped[k], it.tok)
		direct[k] = direct[k] || it.direct
	}
	var out []wireItem
	for _, k := range order {
		out = append(out, wireItem{
			obj:    k.obj,
			kind:   k.kind,
			tok:    wireTok{name: "for{" + tokNames(grouped[k]) + "}", pos: pos},
			direct: direct[k],
		})
	}
	return out
}

func tokNames(ts []wireTok) string {
	names := make([]string, len(ts))
	for i, t := range ts {
		names[i] = t.name
	}
	return strings.Join(names, ",")
}

// exprItems extracts field operations under an arbitrary node in source
// order: direct writer/reader method calls, helper splices, and
// pre-encode stitch markers.
func (x *wireExtractor) exprItems(n ast.Node) []wireItem {
	if n == nil {
		return nil
	}
	info := x.fi.Pkg.Info
	var out []wireItem
	ast.Inspect(n, func(node ast.Node) bool {
		if _, ok := node.(*ast.FuncLit); ok {
			return false
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := funcObj(info, call)
		if fn == nil {
			return true
		}
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			if kind, ok := wireStreamKind(sig.Recv().Type()); ok {
				if tok, isOp := wireOps[strings.ToLower(fn.Name())]; isOp {
					out = append(out, x.opItem(call, fn, kind, tok))
					return true // args may nest further calls; keep walking
				}
			}
		}
		switch fn.Name() {
		case "newWriter", "NewWriter", "newReader", "NewReader":
			return true
		}
		// Helper splice: a loaded callee contributes its streams, either
		// onto the writer/reader argument it receives or anonymously.
		callee, _ := x.prog.callee(info, call)
		if callee == nil {
			return true
		}
		sum := x.prog.wireSummaryOf(callee.Obj)
		if len(sum.w) == 0 && len(sum.r) == 0 {
			return true
		}
		var wObj, rObj types.Object
		haveW, haveR := false, false
		for _, arg := range call.Args {
			id, ok := ast.Unparen(arg).(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Uses[id]
			if obj == nil {
				continue
			}
			if kind, ok := wireStreamKind(obj.Type()); ok {
				if kind == 'w' && !haveW {
					wObj, haveW = obj, true
				}
				if kind == 'r' && !haveR {
					rObj, haveR = obj, true
				}
			}
		}
		for _, t := range sum.w {
			out = append(out, wireItem{obj: wObj, kind: 'w', tok: wireTok{name: t.name, pos: call.Pos(), ref: t.ref}})
		}
		for _, t := range sum.r {
			out = append(out, wireItem{obj: rObj, kind: 'r', tok: wireTok{name: t.name, pos: call.Pos(), ref: t.ref}})
		}
		return true
	})
	return out
}

// opItem renders one direct writer/reader method call as a token,
// handling the two special bytes() forms: a constant-length payload
// ("bytes:8") and the pre-encode stitch (bytes of a buffer another
// writer wraps).
func (x *wireExtractor) opItem(call *ast.CallExpr, fn *types.Func, kind byte, tok string) wireItem {
	info := x.fi.Pkg.Info
	var recvObj types.Object
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		recvObj = identObj(info, sel.X)
	}
	it := wireItem{obj: recvObj, kind: kind, tok: wireTok{name: tok, pos: call.Pos()}, direct: true}
	if tok != "bytes" || len(call.Args) == 0 {
		return it
	}
	arg := ast.Unparen(call.Args[0])
	// Pre-encode stitch: bytes(buf…) where another stream wraps buf.
	var ref types.Object
	ast.Inspect(arg, func(n ast.Node) bool {
		if ref != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		for streamObj, bufObj := range x.wraps {
			if bufObj == obj && streamObj != recvObj {
				ref = streamObj
				return false
			}
		}
		return true
	})
	if ref != nil {
		it.tok = wireTok{name: "@buf", pos: call.Pos(), ref: ref}
		it.direct = false
		return it
	}
	if n, ok := x.constByteLen(arg); ok {
		it.tok.name = fmt.Sprintf("bytes:%d", n)
	}
	return it
}

// constByteLen statically sizes a bytes() argument: a []byte conversion
// of a constant string, or a variable assigned make([]byte, N) with
// constant N.
func (x *wireExtractor) constByteLen(arg ast.Expr) (int64, bool) {
	info := x.fi.Pkg.Info
	if conv, ok := arg.(*ast.CallExpr); ok && len(conv.Args) == 1 {
		if tv, ok := info.Types[conv.Fun]; ok && tv.IsType() {
			if inner, ok := info.Types[conv.Args[0]]; ok && inner.Value != nil && inner.Value.Kind() == constant.String {
				return int64(len(constant.StringVal(inner.Value))), true
			}
		}
	}
	obj := identObj(info, arg)
	if obj == nil {
		return 0, false
	}
	var n int64
	found := false
	ast.Inspect(x.fi.Decl.Body, func(node ast.Node) bool {
		as, ok := node.(*ast.AssignStmt)
		if !ok || found || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			if identObj(info, lhs) != obj {
				continue
			}
			mk, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
			if !ok || len(mk.Args) < 2 {
				continue
			}
			if id, ok := mk.Fun.(*ast.Ident); !ok || id.Name != "make" {
				continue
			}
			if tv, ok := info.Types[mk.Args[1]]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
				if v, exact := constant.Int64Val(tv.Value); exact {
					n, found = v, true
				}
			}
		}
		return true
	})
	return n, found
}

// stitchWire groups extracted items into per-variable streams, expands
// pre-encode markers, and concatenates what remains into the function's
// writer and reader streams.
func stitchWire(items []wireItem) *wireSummary {
	type key struct {
		obj  types.Object
		kind byte
	}
	type stream struct {
		key      key
		toks     []wireTok
		consumed bool
	}
	var order []*stream
	streams := make(map[key]*stream)
	s := &wireSummary{}
	for _, it := range items {
		k := key{it.obj, it.kind}
		st, ok := streams[k]
		if !ok {
			st = &stream{key: k}
			streams[k] = st
			order = append(order, st)
		}
		st.toks = append(st.toks, it.tok)
		if it.direct {
			if it.kind == 'w' {
				s.directW = true
			} else {
				s.directR = true
			}
		}
	}
	// Expand @buf markers (bounded: each expansion consumes a stream).
	for pass := 0; pass < len(order)+1; pass++ {
		expanded := false
		for _, st := range order {
			for i := 0; i < len(st.toks); i++ {
				t := st.toks[i]
				if t.name != "@buf" || t.ref == nil {
					continue
				}
				src, ok := streams[key{t.ref, st.key.kind}]
				if !ok || src == st {
					st.toks[i] = wireTok{name: "bytes", pos: t.pos}
					continue
				}
				src.consumed = true
				rest := append([]wireTok{}, st.toks[i+1:]...)
				st.toks = append(append(st.toks[:i], src.toks...), rest...)
				expanded = true
			}
		}
		if !expanded {
			break
		}
	}
	for _, st := range order {
		if st.consumed {
			continue
		}
		if st.key.kind == 'w' {
			s.w = append(s.w, st.toks...)
		} else {
			s.r = append(s.r, st.toks...)
		}
	}
	return s
}

// wireCounterparts returns the reader-side names a writer-side function
// name pairs with.
func wireCounterparts(name string) []string {
	for _, p := range []struct{ w, r1, r2 string }{
		{"encode", "decode", ""},
		{"Encode", "Decode", ""},
		{"Write", "Read", "Open"},
		{"write", "read", "open"},
	} {
		if rest, ok := strings.CutPrefix(name, p.w); ok && rest != "" {
			out := []string{p.r1 + rest}
			if p.r2 != "" {
				out = append(out, p.r2+rest)
			}
			return out
		}
	}
	return nil
}

func runWireSym(pass *Pass) {
	// Package-level functions of this package, by name.
	funcs := make(map[string]*types.Func)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				funcs[fd.Name.Name] = fn
			}
		}
	}
	for name, wfn := range funcs {
		for _, rname := range wireCounterparts(name) {
			rfn, ok := funcs[rname]
			if !ok {
				continue
			}
			ws := pass.Prog.wireSummaryOf(wfn)
			rs := pass.Prog.wireSummaryOf(rfn)
			if len(ws.w) == 0 || len(rs.r) == 0 {
				continue
			}
			if !ws.directW && !rs.directR {
				// Both sides only wrap deeper format calls; the deep pair
				// is (or will be) compared on its own.
				continue
			}
			compareWire(pass, name, rname, ws.w, rs.r)
		}
	}
}

// tokEqual compares one writer token against one reader token. A sized
// bytes matches an unsized one (the length is unknown on that side).
func tokEqual(w, r string) bool {
	if w == r {
		return true
	}
	if strings.HasPrefix(w, "bytes") && strings.HasPrefix(r, "bytes") {
		return w == "bytes" || r == "bytes"
	}
	return false
}

// compareWire reports the first asymmetry between a writer stream and
// its paired reader stream, if any.
func compareWire(pass *Pass, wname, rname string, w, r []wireTok) {
	n := len(w)
	if len(r) < n {
		n = len(r)
	}
	for i := 0; i < n; i++ {
		if !tokEqual(w[i].name, r[i].name) {
			pass.Reportf(w[i].pos, "wire-format asymmetry between %s (writer) and %s (reader) at field %d: writer emits %s, reader consumes %s (%s)",
				wname, rname, i, w[i].name, r[i].name, pass.Fset.Position(r[i].pos))
			return
		}
	}
	if len(w) != len(r) {
		if len(w) > len(r) {
			pass.Reportf(w[n].pos, "wire-format asymmetry between %s (writer) and %s (reader): writer emits %d field ops, reader consumes %d — first unread field is %s",
				wname, rname, len(w), len(r), w[n].name)
		} else {
			pass.Reportf(r[n].pos, "wire-format asymmetry between %s (writer) and %s (reader): writer emits %d field ops, reader consumes %d — first unwritten field is %s",
				wname, rname, len(w), len(r), r[n].name)
		}
	}
}
