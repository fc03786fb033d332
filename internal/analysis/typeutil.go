package analysis

import (
	"go/ast"
	"go/types"
)

// mpiPath is the import path of the communicator whose collective and
// point-to-point calls lockorder counts as blocking.
const mpiPath = "spio/internal/mpi"

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

// callName renders fn for a diagnostic: Type.Method for a method,
// pkg.Func otherwise.
func callName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
