package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAllocAnalyzer enforces allocation-freedom on functions that opt in
// with `//airlint:hotpath` in their doc comment: the per-request scheme
// walkers, the engine's round loop and the faults injector run millions
// of times per experiment, and the ROADMAP's million-client columnar
// engine builds directly on them staying allocation-free. The check is
// purely syntactic (AST-level): it flags the constructs that allocate on
// every execution —
//
//   - function literals (the closure and its captures allocate);
//   - map and slice composite literals (array and struct literals are
//     stack-friendly and stay legal);
//   - make, new, and append (growth must be preallocated outside);
//   - calls into package fmt (formatting boxes every operand);
//   - non-constant string concatenation and string<->[]byte/[]rune
//     conversions;
//   - interface boxing: passing, returning or assigning a concrete
//     non-pointer-shaped value where an interface is expected;
//   - go statements.
//
// A justified exception carries `//airlint:allow hotalloc <reason>` on
// its line, exactly like any other analyzer.
var HotAllocAnalyzer = &Analyzer{
	Name: "hotalloc",
	Doc:  "functions marked //airlint:hotpath must be allocation-free at the AST level",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hotpathMarked(fd) {
				continue
			}
			obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			checkHotBody(pass, fd.Body, obj.Type().(*types.Signature))
		}
	}
}

// checkHotBody walks one function body against the hot-path rules. sig
// is the enclosing function's signature, used to type return values;
// closures are checked recursively against their own signatures, since
// a marked function's inner loop may be a literal.
func checkHotBody(pass *Pass, body ast.Node, sig *types.Signature) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(),
				"function literal in a hot path allocates the closure and its captures; hoist it out of the per-request path or pass state explicitly")
			if lsig, ok := pass.Info.Types[n].Type.(*types.Signature); ok {
				checkHotBody(pass, n.Body, lsig)
			}
			return false
		case *ast.CompositeLit:
			tv, ok := pass.Info.Types[n]
			if !ok || tv.Type == nil {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Map:
				pass.Reportf(n.Pos(), "map literal in a hot path allocates per execution; hoist the map out and reuse it")
			case *types.Slice:
				pass.Reportf(n.Pos(), "slice literal in a hot path allocates per execution; preallocate outside the hot path")
			}
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement in a hot path allocates a goroutine per execution")
		case *ast.CallExpr:
			checkHotCall(pass, n)
		case *ast.BinaryExpr:
			// A constant-folded concatenation has a Value and is free; any
			// runtime concatenation allocates the result.
			if n.Op == token.ADD && nonConstString(pass, n) {
				pass.Reportf(n.Pos(), "string concatenation in a hot path allocates the result; format outside the hot path")
			}
		case *ast.AssignStmt:
			checkHotAssign(pass, n)
		case *ast.ReturnStmt:
			if sig != nil && len(n.Results) == sig.Results().Len() {
				for i, r := range n.Results {
					reportBox(pass, sig.Results().At(i).Type(), r, "returning")
				}
			}
		}
		return true
	})
}

func checkHotAssign(pass *Pass, n *ast.AssignStmt) {
	if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringExpr(pass, n.Lhs[0]) {
		pass.Reportf(n.Pos(), "string concatenation in a hot path allocates the result; format outside the hot path")
		return
	}
	if n.Tok != token.ASSIGN || len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, lhs := range n.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		if tv, ok := pass.Info.Types[lhs]; ok && tv.Type != nil {
			reportBox(pass, tv.Type, n.Rhs[i], "assigning")
		}
	}
}

func checkHotCall(pass *Pass, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	tv, ok := pass.Info.Types[fun]
	if !ok {
		return
	}
	if tv.IsType() {
		checkHotConversion(pass, call, tv.Type)
		return
	}
	if tv.IsBuiltin() {
		name := ""
		if id, ok := fun.(*ast.Ident); ok {
			name = id.Name
		}
		switch name {
		case "make":
			pass.Reportf(call.Pos(), "make in a hot path allocates per execution; preallocate outside and reuse")
		case "new":
			pass.Reportf(call.Pos(), "new in a hot path allocates per execution; preallocate outside and reuse")
		case "append":
			pass.Reportf(call.Pos(), "append in a hot path may grow the backing array; preallocate capacity outside the hot path")
		}
		return
	}
	// Calls into fmt box every operand and build a string; one report per
	// call (the operands are not additionally reported as boxing).
	var callee types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		callee = pass.Info.Uses[f]
	case *ast.SelectorExpr:
		callee = pass.Info.Uses[f.Sel]
	}
	if fn, ok := callee.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "fmt call in a hot path allocates (formatting boxes its operands); move formatting out of the per-request path")
		return
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		if call.Ellipsis.IsValid() && i == len(call.Args)-1 {
			break // xs... re-passes an existing slice
		}
		var pt types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if sl, ok := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < sig.Params().Len():
			pt = sig.Params().At(i).Type()
		}
		reportBox(pass, pt, arg, "passing")
	}
}

// checkHotConversion flags the conversions that copy: string <-> []byte
// and string <-> []rune. Numeric and named-type conversions are free.
func checkHotConversion(pass *Pass, call *ast.CallExpr, dst types.Type) {
	if len(call.Args) != 1 {
		return
	}
	src := pass.Info.Types[call.Args[0]].Type
	if src == nil {
		return
	}
	if isStringType(dst) && isByteOrRuneSlice(src) || isByteOrRuneSlice(dst) && isStringType(src) {
		pass.Reportf(call.Pos(), "string conversion in a hot path copies the bytes; keep one representation through the hot path")
	}
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}

func isStringExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	return ok && tv.Type != nil && isStringType(tv.Type)
}

func nonConstString(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	return ok && tv.Type != nil && isStringType(tv.Type) && tv.Value == nil
}

// reportBox flags storing a concrete value into an interface when the
// value is not pointer-shaped: the runtime must heap-allocate the boxed
// copy. Pointer-shaped values (pointers, channels, maps, funcs, unsafe
// pointers) live directly in the interface word and stay free.
func reportBox(pass *Pass, dst types.Type, src ast.Expr, what string) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	tv, ok := pass.Info.Types[src]
	if !ok || tv.Type == nil || tv.IsNil() {
		return
	}
	t := tv.Type
	if types.IsInterface(t) {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return
	case *types.Basic:
		if u.Kind() == types.UnsafePointer {
			return
		}
	}
	pass.Reportf(src.Pos(),
		"%s a concrete %s where an interface is expected boxes the value on the heap in a hot path; take a pointer or keep the concrete type", what, t)
}
