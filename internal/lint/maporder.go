package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/airindex/airindex/internal/lint/flow"
)

// MapOrderAnalyzer owns the map-iteration-order invariant. Ranging over
// a Go map yields keys in a deliberately randomized order; any value
// derived from that iteration is tainted "unordered" and must not reach
// an order-sensitive sink — a core.Result field, the experiment table
// emitters, an fmt/writer call, or, inside the simulation-critical
// packages, a return — unless the taint is killed by a sort. The value
// is tracked through assignments, appends, string building and
// branches, and sort.Strings(keys) actually cleanses keys.
//
// Lattice: Store[token.Pos] mapping each tainted location to the
// position of the map range that produced it (first range wins at joins,
// for deterministic messages). Sanitizers: any call into sort or slices
// whose name starts with "Sort" (plus sort.Strings/Ints/Float64s and the
// *Stable/*Func variants) clears its argument and returns clean values.
// An integer fold (`+=`, `*=`, `|=`, `&=`, `^=`) is exact and
// commutative, so it does not pass the rhs taint on; a float or string
// fold does, since its result depends on the order of the terms.
//
// The emission sinks are checked module-wide. The return sink is scoped
// to the simulation-critical packages: elsewhere (the lint dataflow
// library's store copies, say) returning a map-derived value is routine
// and order-free.
var MapOrderAnalyzer = &Analyzer{
	Name: "maporder",
	Doc:  "map-iteration-ordered data must be sorted before reaching Result fields, experiment tables, fmt/writer sinks, or simulation-package returns",
	Run:  runMapOrder,
}

func runMapOrder(pass *Pass) {
	returns := underAny(pass.RelPath, simCritical)
	for _, f := range pass.Files {
		flow.FuncGraphs(f, func(_ *ast.FuncDecl, _ *ast.FuncLit, g *flow.Graph) {
			mo := &mapOrderFunc{pass: pass, returns: returns}
			l := flow.Lattice[flow.Store[token.Pos]]{
				Init: flow.Store[token.Pos]{},
				Join: func(a, b flow.Store[token.Pos]) flow.Store[token.Pos] {
					return flow.JoinStores(a, b, func(x, y token.Pos) token.Pos {
						if y < x {
							return y
						}
						return x
					})
				},
				Equal:    flow.Store[token.Pos].Equal,
				Transfer: mo.transfer,
			}
			flow.ForwardVisit(g, l, mo.visit)
		})
	}
}

type mapOrderFunc struct {
	pass *Pass
	// returns makes a return statement a sink.
	returns bool
	// reported dedups findings per sink call position: one call with two
	// tainted arguments is one finding.
	reported map[token.Pos]bool
}

// transfer implements the taint step for one CFG node.
func (mo *mapOrderFunc) transfer(n ast.Node, in flow.Store[token.Pos]) flow.Store[token.Pos] {
	out := in.Clone()

	// Sanitizer calls anywhere in the node (including `sort.Strings(ks)`
	// as a bare statement) cleanse their slice argument in place.
	flow.InspectNode(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if mo.isSanitizer(call) {
			for _, arg := range call.Args {
				if r, ok := flow.RefOf(mo.pass.Info, arg); ok {
					out.Clear(r)
				}
			}
		}
		return true
	})

	switch n := n.(type) {
	case *ast.RangeStmt:
		// Over a map the iteration itself is the taint source; over any
		// other tainted collection (keys gathered from a map range) the
		// loop variables inherit the collection's origin, so the common
		// `for _, k := range keys { emit(k) }` pattern stays tracked.
		taint := token.NoPos
		if mo.rangesOverMap(n) {
			taint = n.Pos()
		} else {
			taint = mo.eval(n.X, out)
		}
		if taint.IsValid() {
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if e == nil {
					continue
				}
				if r, ok := flow.RefOf(mo.pass.Info, e); ok {
					out.Set(r, taint)
				}
			}
		}
	case *ast.AssignStmt, *ast.DeclStmt:
		// Compound ops (`s += x`) fold the rhs into the old value, so the
		// lhs keeps any taint it already carried.
		var tok token.Token
		compound := false
		if a, ok := n.(*ast.AssignStmt); ok {
			tok = a.Tok
			compound = tok != token.ASSIGN && tok != token.DEFINE
		}
		for _, as := range flow.Assignments(n) {
			var taint token.Pos
			if as.Rhs != nil && !mo.orderFreeFold(tok, as.Lhs) {
				taint = mo.eval(as.Rhs, out)
			}
			if r, ok := flow.RefOf(mo.pass.Info, as.Lhs); ok {
				if compound {
					if old, ok := out.Get(r); ok {
						taint = firstPos(taint, old)
					}
				}
				if taint.IsValid() {
					out.Set(r, taint)
				} else {
					out.Clear(r)
				}
				continue
			}
			// Weak update through an index or other unresolvable lvalue:
			// `keys[i] = k` taints the whole slice.
			if taint.IsValid() {
				if base := mo.indexBase(as.Lhs); !base.IsZero() {
					if old, ok := out.Get(base); !ok || taint < old {
						out[base] = taint
					}
				}
			}
		}
	}
	return out
}

// orderFreeFold reports whether `lhs tok= rhs` is an integer fold whose
// final value does not depend on the order of the terms.
func (mo *mapOrderFunc) orderFreeFold(tok token.Token, lhs ast.Expr) bool {
	switch tok {
	case token.ADD_ASSIGN, token.MUL_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		if t := mo.pass.Info.TypeOf(lhs); t != nil {
			b, ok := t.Underlying().(*types.Basic)
			return ok && b.Info()&types.IsInteger != 0
		}
	}
	return false
}

// indexBase resolves `xs[i]` (or `(*p)[i]`) to the Ref of xs.
func (mo *mapOrderFunc) indexBase(e ast.Expr) flow.Ref {
	if ix, ok := e.(*ast.IndexExpr); ok {
		if r, ok := flow.RefOf(mo.pass.Info, ix.X); ok {
			return r
		}
	}
	return flow.Ref{}
}

// eval returns the taint origin of an expression's value, or NoPos.
func (mo *mapOrderFunc) eval(e ast.Expr, s flow.Store[token.Pos]) token.Pos {
	switch e := e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr:
		if r, ok := flow.RefOf(mo.pass.Info, e); ok {
			if p, ok := s.Get(r); ok {
				return p
			}
		}
		return token.NoPos
	case *ast.ParenExpr:
		return mo.eval(e.X, s)
	case *ast.UnaryExpr:
		return mo.eval(e.X, s)
	case *ast.BinaryExpr:
		return firstPos(mo.eval(e.X, s), mo.eval(e.Y, s))
	case *ast.IndexExpr:
		return firstPos(mo.eval(e.X, s), mo.eval(e.Index, s))
	case *ast.SliceExpr:
		return mo.eval(e.X, s)
	case *ast.CompositeLit:
		var p token.Pos
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			p = firstPos(p, mo.eval(el, s))
		}
		return p
	case *ast.TypeAssertExpr:
		return mo.eval(e.X, s)
	case *ast.CallExpr:
		if mo.isSanitizer(e) {
			return token.NoPos
		}
		// len/cap of a tainted collection are order-independent.
		if id, ok := e.Fun.(*ast.Ident); ok {
			if b, isB := mo.pass.Info.ObjectOf(id).(*types.Builtin); isB {
				switch b.Name() {
				case "len", "cap":
					return token.NoPos
				}
			}
		}
		// Conversions and ordinary calls (append, Sprintf, strings.Join,
		// helpers) conservatively propagate their arguments' taint.
		var p token.Pos
		for _, a := range e.Args {
			p = firstPos(p, mo.eval(a, s))
		}
		// A method call on a tainted receiver yields tainted data too
		// (e.g. b.String() of a builder fed from a map range).
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			p = firstPos(p, mo.eval(sel.X, s))
		}
		return p
	}
	return token.NoPos
}

func firstPos(a, b token.Pos) token.Pos {
	switch {
	case !a.IsValid():
		return b
	case !b.IsValid():
		return a
	case b < a:
		return b
	default:
		return a
	}
}

// rangesOverMap reports whether the range expression's type is a map.
func (mo *mapOrderFunc) rangesOverMap(n *ast.RangeStmt) bool {
	tv, ok := mo.pass.Info.Types[n.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// isSanitizer recognizes the sort.*/slices.Sort* family.
func (mo *mapOrderFunc) isSanitizer(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := mo.pass.Info.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		// Everything in package sort either sorts or answers questions
		// about sorted data; treating the package as a sanitizer keeps
		// the rule simple and errs on silence, not noise.
		return true
	case "slices":
		return strings.HasPrefix(fn.Name(), "Sort")
	}
	return false
}

// visit checks the sinks reachable in this node against the incoming
// taint.
func (mo *mapOrderFunc) visit(n ast.Node, before flow.Store[token.Pos]) {
	// Replay the node's internal sanitizer effects are not needed:
	// within one statement a sink call's arguments are evaluated before
	// any sort it also contains could matter in practice.
	if mo.reported == nil {
		mo.reported = make(map[token.Pos]bool)
	}

	// Sink 1: assignments into core.Result (field or whole struct), and
	// returns where they are sinks.
	switch st := n.(type) {
	case *ast.ReturnStmt:
		if mo.returns {
			for _, e := range st.Results {
				if p := mo.eval(e, before); p.IsValid() {
					mo.report(st.Pos(), "return", p)
					break
				}
			}
		}
	case *ast.AssignStmt, *ast.DeclStmt:
		for _, as := range flow.Assignments(st) {
			if as.Rhs == nil {
				continue
			}
			if !mo.isResultLvalue(as.Lhs) {
				continue
			}
			if p := mo.eval(as.Rhs, before); p.IsValid() {
				mo.report(as.Lhs.Pos(), "core.Result", p)
			}
		}
	}

	// Sinks 2+3: fmt/writer/table emission calls anywhere in the node.
	flow.InspectNode(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		kind, ok := mo.sinkKind(call)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			if p := mo.eval(arg, before); p.IsValid() {
				mo.report(call.Pos(), kind, p)
				break
			}
		}
		return true
	})
}

func (mo *mapOrderFunc) report(sink token.Pos, kind string, origin token.Pos) {
	if mo.reported[sink] {
		return
	}
	mo.reported[sink] = true
	mo.pass.Reportf(sink,
		"value ordered by map iteration (range at line %d) reaches %s sink; sort it first (sort.* / slices.Sort*) so emitted order is deterministic",
		mo.pass.Fset.Position(origin).Line, kind)
}

// isResultLvalue reports whether e writes into a core.Result (a field
// selection on a value or pointer whose named type is Result declared in
// a package path ending in internal/core, or such a variable itself).
func (mo *mapOrderFunc) isResultLvalue(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	tv, ok := mo.pass.Info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	return isCoreResultType(tv.Type)
}

func isCoreResultType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Name() != "Result" || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == "internal/core" || strings.HasSuffix(path, "/internal/core")
}

// sinkKind classifies a call as an emission sink. Module-wide: fmt
// printing, csv/table writers, and any method named Write* or the
// experiment table's AddRow/Note.
func (mo *mapOrderFunc) sinkKind(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := mo.pass.Info.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return "", false
	}
	name := fn.Name()
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "fmt" {
		if strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") {
			return "fmt output", true
		}
		return "", false
	}
	// Methods: writers (io.Writer implementations, csv.Writer.Write,
	// strings.Builder.WriteString, Table.WriteCSV) and the experiment
	// table's row/note collectors.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if strings.HasPrefix(name, "Write") {
			return "writer", true
		}
		if name == "AddRow" || name == "Note" {
			return "experiment table", true
		}
	}
	return "", false
}
