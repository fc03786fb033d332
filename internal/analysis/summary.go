package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// Per-function summaries, computed lazily and memoized on the Program.
// Each summary answers one analyzer's question about a whole call tree:
//
//   - bufSummary: which *particle.Buffer parameters the function may
//     use, and which it (transitively) hands off to WriteAsync
//     (bufhandoff opens the ownership window at wrapper calls and
//     reports deep uses with a call path);
//   - errSummary: whether the function's error result may carry an
//     error from the watched spio API surface (errdrop then treats the
//     function itself as watched).
//
// Recursion is handled per summary kind: buffer-touch cycles degrade to
// "touches" (over-approximate, never hides a race), and handoff/error
// cycles degrade to "no" (under-approximate: they can only miss, never
// invent, a finding).

// bufSummary records how a function treats its *particle.Buffer
// parameters, by parameter index.
type bufSummary struct {
	// touches[i]: parameter i may be read, written, or escape to code
	// the call graph cannot see.
	touches map[int]bool
	// touchPath[i]: representative path to the deepest known use.
	touchPath map[int][]string
	// handoff[i]: parameter i is (transitively) handed to WriteAsync.
	handoff map[int]bool
	// handoffPath[i]: path to the WriteAsync call.
	handoffPath map[int][]string
}

// isBufferType reports whether t is *particle.Buffer (or the alias the
// root package re-exports).
func isBufferType(t types.Type) bool {
	return isNamed(t, particlePath, "Buffer")
}

// bufParamObjs maps each buffer-typed parameter's object to its index
// in fn's signature.
func bufParamObjs(fi *FuncInfo) map[types.Object]int {
	out := make(map[types.Object]int)
	sig := fi.Obj.Type().(*types.Signature)
	idx := 0
	if fi.Decl.Type.Params == nil {
		return out
	}
	for _, field := range fi.Decl.Type.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1 // unnamed parameter still occupies a slot
		}
		for j := 0; j < n; j++ {
			if idx >= sig.Params().Len() {
				break
			}
			if j < len(field.Names) && isBufferType(sig.Params().At(idx).Type()) {
				if obj := fi.Pkg.Info.Defs[field.Names[j]]; obj != nil {
					out[obj] = idx
				}
			}
			idx++
		}
	}
	return out
}

// bufSummaryOf returns fn's buffer-parameter summary, or nil when fn is
// not a loaded function.
func (p *Program) bufSummaryOf(fn *types.Func) *bufSummary {
	if s, ok := p.bufSums[fn]; ok {
		return s
	}
	fi, ok := p.Funcs[fn]
	if !ok {
		return nil
	}
	params := bufParamObjs(fi)
	if p.bufVisiting[fn] {
		// Cycle: assume every buffer parameter is used (safe), none
		// handed off (a miss at worst).
		s := &bufSummary{touches: make(map[int]bool), touchPath: make(map[int][]string)}
		for _, i := range params {
			s.touches[i] = true
			s.touchPath[i] = []string{callName(fn), "…"}
		}
		return s
	}
	p.bufVisiting[fn] = true
	defer delete(p.bufVisiting, fn)

	s := &bufSummary{
		touches:     make(map[int]bool),
		touchPath:   make(map[int][]string),
		handoff:     make(map[int]bool),
		handoffPath: make(map[int][]string),
	}
	if len(params) == 0 {
		p.bufSums[fn] = s
		return s
	}
	info := fi.Pkg.Info
	name := callName(fn)

	// consumed marks parameter identifiers that appear as a whole
	// argument to a resolvable call; their effect is the callee's
	// summary at that position rather than a direct local use.
	consumed := make(map[*ast.Ident]bool)

	markTouch := func(i int, path []string) {
		if !s.touches[i] {
			s.touches[i] = true
			s.touchPath[i] = path
		}
	}
	markHandoff := func(i int, path []string) {
		if !s.handoff[i] {
			s.handoff[i] = true
			s.handoffPath[i] = path
		}
	}

	// Buffer parameters inside function literals are real uses (a
	// closure reading the buffer during the ownership window is the
	// race), so literals are scanned for uses below; handoff and call
	// propagation stay restricted to the function's own schedule via
	// scanCalls.
	scanCalls(fi.Decl.Body, func(call *ast.CallExpr) {
		argIdx := func(pos int) (int, *ast.Ident, bool) {
			id, ok := ast.Unparen(call.Args[pos]).(*ast.Ident)
			if !ok {
				return 0, nil, false
			}
			obj := info.Uses[id]
			i, isParam := params[obj]
			return i, id, isParam
		}
		if isWriteAsync(info, call) && len(call.Args) > 0 {
			if i, id, ok := argIdx(len(call.Args) - 1); ok {
				consumed[id] = true
				pos := fi.Pkg.Fset.Position(call.Pos())
				markHandoff(i, []string{name, fmt.Sprintf("WriteAsync at %s", pos)})
				return
			}
		}
		var callee *types.Func
		var calleeSum *bufSummary
		if cfi, _ := p.callee(info, call); cfi != nil {
			callee = cfi.Obj
			calleeSum = p.bufSummaryOf(callee)
		}
		for a := range call.Args {
			i, id, ok := argIdx(a)
			if !ok {
				continue
			}
			if calleeSum == nil {
				// Unknown, external or func-value callee: the buffer
				// escapes code we cannot see — "may do anything".
				continue
			}
			consumed[id] = true
			// Map the argument position to the callee's parameter index
			// (methods: receiver is not in Args; variadic tail folds onto
			// the last parameter).
			csig := callee.Type().(*types.Signature)
			j := a
			if j >= csig.Params().Len() {
				j = csig.Params().Len() - 1
			}
			if j < 0 {
				continue
			}
			if calleeSum.touches[j] {
				markTouch(i, append([]string{name}, calleeSum.touchPath[j]...))
			}
			if calleeSum.handoff[j] {
				markHandoff(i, append([]string{name}, calleeSum.handoffPath[j]...))
			}
		}
	})

	// Any remaining mention of a buffer parameter is a direct use:
	// selector, method call, composite literal, argument to an
	// unresolvable call, capture by a literal.
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if consumed[id] {
			return true
		}
		obj := info.Uses[id]
		i, isParam := params[obj]
		if !isParam {
			return true
		}
		pos := fi.Pkg.Fset.Position(id.Pos())
		markTouch(i, []string{name, fmt.Sprintf("use of %s at %s", id.Name, pos)})
		return true
	})
	p.bufSums[fn] = s
	return s
}

// errSummary records whether a function's error result may carry an
// error from the watched spio API surface.
type errSummary struct {
	propagates bool
	// path is a representative chain to the watched call:
	// ["run", "Dataset.Close"].
	path []string
}

// errSummaryOf returns fn's error-propagation summary, or nil when fn
// is not a loaded function.
func (p *Program) errSummaryOf(fn *types.Func) *errSummary {
	if s, ok := p.errSums[fn]; ok {
		return s
	}
	fi, ok := p.Funcs[fn]
	if !ok {
		return nil
	}
	if p.errVisiting[fn] {
		return &errSummary{} // cycle: degrade to "does not propagate"
	}
	sig := fn.Type().(*types.Signature)
	returnsErr := false
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			returnsErr = true
		}
	}
	if !returnsErr {
		s := &errSummary{}
		p.errSums[fn] = s
		return s
	}
	p.errVisiting[fn] = true
	defer delete(p.errVisiting, fn)

	info := fi.Pkg.Info
	s := &errSummary{}
	scanCalls(fi.Decl.Body, func(call *ast.CallExpr) {
		if s.propagates {
			return
		}
		if watched, ok := watchedCall(info, call); ok {
			s.propagates = true
			s.path = []string{callName(fn), callName(watched)}
			return
		}
		if callee, _ := p.callee(info, call); callee != nil {
			if cs := p.errSummaryOf(callee.Obj); cs.propagates {
				s.propagates = true
				s.path = append([]string{callName(fn)}, cs.path...)
			}
		}
	})
	p.errSums[fn] = s
	return s
}
