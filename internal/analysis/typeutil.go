package analysis

import (
	"go/ast"
	"go/types"
)

// Import paths the analyzers key on. The root package re-exports most
// of the internal API through aliases, so type-identity checks against
// the internal paths cover both spellings.
const (
	mpiPath      = "spio/internal/mpi"
	corePath     = "spio/internal/core"
	particlePath = "spio/internal/particle"
	binioPath    = "spio/internal/binio"
	rootPath     = "spio"
)

// isNamed reports whether t (after stripping pointers) is the named
// type pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// funcObj resolves the function or method a call invokes, or nil.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// methodOn reports whether call invokes a method with the given name
// whose receiver is (a pointer to) the named type pkgPath.typeName.
func methodOn(info *types.Info, call *ast.CallExpr, pkgPath, typeName, method string) bool {
	fn := funcObj(info, call)
	if fn == nil || fn.Name() != method {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isNamed(sig.Recv().Type(), pkgPath, typeName)
}

// commMethodName returns the method name if call invokes a method on
// (a pointer to) mpi.Comm, else "".
func commMethodName(info *types.Info, call *ast.CallExpr) string {
	fn := funcObj(info, call)
	if fn == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	if !isNamed(sig.Recv().Type(), mpiPath, "Comm") {
		return ""
	}
	return fn.Name()
}

// pkgFunc reports whether call invokes the package-level function
// pkgPath.name.
func pkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := funcObj(info, call)
	if fn == nil || fn.Name() != name || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath
}

// identObj resolves an expression to the object of the plain identifier
// it denotes, or nil for anything more structured.
func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// funcBodies yields every function body in the file: declarations and
// function literals, each as an independent analysis root (a literal
// runs on its own goroutine's schedule, so cross-boundary sequencing is
// meaningless for our per-function checks).
func funcBodies(file *ast.File, fn func(body *ast.BlockStmt)) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.FuncDecl:
			if d.Body != nil {
				fn(d.Body)
			}
		case *ast.FuncLit:
			fn(d.Body)
		}
		return true
	})
}
