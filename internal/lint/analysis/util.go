package analysis

import (
	"go/ast"
	"go/types"
)

// NamedName returns the fully-qualified "pkgpath.Name" of a named or
// aliased type, or "" for unnamed types.
func NamedName(t types.Type) string {
	if t == nil {
		return ""
	}
	if alias, ok := t.(*types.Alias); ok {
		t = types.Unalias(alias)
	}
	n, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// CalleeObj resolves the object a call expression invokes (function,
// method, or nil for indirect calls through non-selector expressions).
func CalleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			return sel.Obj()
		}
		return info.Uses[fn.Sel]
	}
	return nil
}

// CalleePkgPath returns the import path of the package declaring a
// call's target, or "".
func CalleePkgPath(info *types.Info, call *ast.CallExpr) string {
	obj := CalleeObj(info, call)
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// IsMutex reports whether t is sync.Mutex or sync.RWMutex (possibly via
// pointer).
func IsMutex(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	switch NamedName(t) {
	case "sync.Mutex", "sync.RWMutex":
		return true
	}
	return false
}

// FieldOf resolves a selector expression to the struct field it reads or
// writes, returning the field variable and the full name of the named
// struct type declaring it ("pkgpath.Type"). ok is false for method
// selections, package qualifiers and unresolved selectors.
func FieldOf(info *types.Info, sel *ast.SelectorExpr) (fld *types.Var, owner string, ok bool) {
	s, found := info.Selections[sel]
	if !found || s.Kind() != types.FieldVal {
		return nil, "", false
	}
	v, isVar := s.Obj().(*types.Var)
	if !isVar {
		return nil, "", false
	}
	// Walk the receiver type to the named struct that declares the field
	// (the last embedded step of the selection path).
	t := s.Recv()
	for _, i := range s.Index()[:len(s.Index())-1] {
		st, okc := structOf(t)
		if !okc {
			return nil, "", false
		}
		t = st.Field(i).Type()
	}
	if p, okc := t.Underlying().(*types.Pointer); okc {
		t = p.Elem()
	}
	name := NamedName(t)
	if name == "" {
		return nil, "", false
	}
	return v, name, true
}

func structOf(t types.Type) (*types.Struct, bool) {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}
