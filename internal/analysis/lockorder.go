package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockOrder flags the three static deadlock shapes the serving tier is
// exposed to: re-acquiring a mutex the goroutine already holds
// (sync.Mutex is not reentrant — self-deadlock), holding a mutex across
// a blocking operation (channel send/receive, select, WaitGroup.Wait,
// collective/point-to-point communication, net.Conn I/O), and acquiring
// two mutexes in opposite orders on different code paths (the classic
// AB/BA inversion).
//
// The analysis is interprocedural: every loaded function gets a lock
// summary (the set of mutexes it may transitively acquire, and whether
// it may transitively block), propagated through the call graph, so a
// helper that hides a Lock or a channel receive is seen at every call
// site. Lock identity is by declaration — "pkg.Type.field" for struct
// mutexes, "pkg.func:name" for locals — so two instances of the same
// struct share an identity: the analysis reasons about lock *classes*,
// which is what a global order discipline is about (and a soundness
// boundary DESIGN.md §8.3 spells out).
//
// sync.Cond.Wait is special-cased: it releases its associated mutex
// while parked, so the canonical `mu.Lock(); for !ready { cond.Wait() }`
// mailbox/barrier idiom is not a finding; the function is still marked
// "may block" so a *caller* holding another lock across it is.
//
// The abstract held-set interpreter itself lives in lockset.go: it is
// shared with racegate, which runs it in observing mode to learn the
// lock set held at every struct-field access.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "flags self-deadlocks, locks held across blocking operations, and inconsistent lock-acquisition order",
	Run:  runLockOrder,
}

// lockSummary is a function's transitive lock behaviour.
type lockSummary struct {
	// acquires maps each lock class the function may (transitively)
	// acquire to a representative call path.
	acquires map[string]*lockAcq
	// blocks is non-nil when the function may (transitively) perform a
	// blocking operation on its own schedule.
	blocks *lockBlock
}

type lockAcq struct {
	write bool // a write acquisition (Lock, not RLock) exists
	path  []string
}

type lockBlock struct {
	desc string
	path []string
}

// lockEdge is one observed acquisition order: to was acquired while
// from was held.
type lockEdge struct {
	pos  token.Pos
	fn   string
	from string
	to   string
}

// runLockOrder is the whole-program lock analysis: build per-function
// summaries, walk every function with an abstract held set, and
// cross-check the global acquisition-order graph.
func runLockOrder(prog *Program, report Reporter) {
	sums := prog.buildLockSummaries()

	var edges []lockEdge
	for fn, fi := range prog.Funcs {
		w := &lockWalker{
			prog:    prog,
			info:    fi.Pkg.Info,
			fnName:  callName(fn),
			sums:    sums,
			sink:    report,
			flagged: make(map[token.Pos]bool),
			blocked: make(map[string]bool),
		}
		w.walkStmts(fi.Decl.Body.List, nil)
		edges = append(edges, w.edges...)
	}

	// Pairwise order check: an AB edge plus a BA edge anywhere in the
	// program is an inversion; report at both sites.
	first := make(map[[2]string]lockEdge)
	for _, e := range edges {
		k := [2]string{e.from, e.to}
		if _, ok := first[k]; !ok {
			first[k] = e
		}
	}
	reported := make(map[[2]string]bool)
	for k, e := range first {
		rk := [2]string{k[1], k[0]}
		rev, ok := first[rk]
		if !ok || reported[k] || reported[rk] {
			continue
		}
		reported[k], reported[rk] = true, true
		for _, pair := range [2][2]lockEdge{{e, rev}, {rev, e}} {
			here, there := pair[0], pair[1]
			report(here.pos, "lock order inversion: %s acquires %s while holding %s, but %s acquires them in the opposite order at %s",
				here.fn, lockShort(here.to), lockShort(here.from), there.fn, prog.Fset.Position(there.pos))
		}
	}
}

// lockShort trims the package path off a lock key for diagnostics.
func lockShort(key string) string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}

// buildLockSummaries computes every function's transitive acquire set
// and may-block bit: one direct scan per function, then a closure over
// the call graph (fixpoint; cycles converge because the sets only
// grow). A call that is itself a blocking operation (Comm.Barrier,
// fr.writeTo(conn)) is a leaf here: what matters about it is that it
// parks, not which locks it takes inside.
func (p *Program) buildLockSummaries() map[*types.Func]*lockSummary {
	sums := make(map[*types.Func]*lockSummary, len(p.Funcs))
	for fn, fi := range p.Funcs {
		s := &lockSummary{acquires: make(map[string]*lockAcq)}
		name := callName(fn)
		info := fi.Pkg.Info
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit, *ast.GoStmt:
				return false
			case *ast.SendStmt:
				s.noteBlock("channel send", name)
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					s.noteBlock("channel receive", name)
				}
			case *ast.SelectStmt:
				if !selectHasDefault(n) {
					s.noteBlock("select", name)
					return true
				}
				// A select with a default never parks: its comm clauses
				// are polls, not blocking sends/receives, so only the
				// clause bodies are scanned.
				for _, c := range n.Body.List {
					if cc, ok := c.(*ast.CommClause); ok {
						for _, st := range cc.Body {
							ast.Inspect(st, visit)
						}
					}
				}
				return false
			case *ast.RangeStmt:
				if isChanType(info.Types[n.X].Type) {
					s.noteBlock("range over channel", name)
				}
			case *ast.CallExpr:
				if key, write, ok := lockAcquire(info, n); ok {
					if a := s.acquires[key]; a == nil {
						s.acquires[key] = &lockAcq{write: write, path: []string{name}}
					} else if write {
						a.write = true
					}
				} else if desc, ok := blockingCall(info, n); ok {
					s.noteBlock(desc, name)
				}
			}
			return true
		}
		ast.Inspect(fi.Decl.Body, visit)
		sums[fn] = s
	}
	for changed := true; changed; {
		changed = false
		for fn, fi := range p.Funcs {
			s := sums[fn]
			name := callName(fn)
			for _, c := range fi.Calls {
				if _, leaf := blockingCall(fi.Pkg.Info, c.Site); leaf {
					continue
				}
				cs := sums[c.Callee.Obj]
				for key, ca := range cs.acquires {
					if a := s.acquires[key]; a == nil {
						s.acquires[key] = &lockAcq{write: ca.write, path: append([]string{name}, ca.path...)}
						changed = true
					} else if ca.write && !a.write {
						a.write = true
						changed = true
					}
				}
				if cs.blocks != nil && s.blocks == nil {
					s.blocks = &lockBlock{desc: cs.blocks.desc, path: append([]string{name}, cs.blocks.path...)}
					changed = true
				}
			}
		}
	}
	return sums
}

func (s *lockSummary) noteBlock(desc, fnName string) {
	if s.blocks == nil {
		s.blocks = &lockBlock{desc: desc, path: []string{fnName}}
	}
}
