// Package callgraph pins the resolver's conservative edges: the shapes
// staticCallee deliberately refuses to resolve (method-value bindings,
// calls through function-valued fields) and the ones it must keep
// resolving (direct calls, deferred direct calls). callgraph_test.go
// asserts the resolution result for each marked call and that the
// analyzers stay silent — degraded knowledge must never invent phantom
// behaviour.
package callgraph

type Conn struct {
	hook func()
	n    int
}

func (c *Conn) Close() {
	c.n++
}

// Direct pins the baseline: a method call on a concrete receiver
// resolves.
func Direct(c *Conn) {
	c.Close()
}

// MethodValue pins the documented hole: binding a method to a variable
// erases the target — the later call is a func-value call and resolves
// to nil even though the binding is one line up.
func MethodValue(c *Conn) {
	f := c.Close
	f()
}

// Deferred pins that defer is transparent to resolution: the call
// target is as statically known as at a plain call site.
func Deferred(c *Conn) {
	defer c.Close()
}

// GoField pins the spawn-through-field hole: the goroutine body lives
// behind a func-typed field, so the go statement resolves to nil — the
// spawned work contributes no racegate origin.
func GoField(c *Conn) {
	go c.hook()
}
