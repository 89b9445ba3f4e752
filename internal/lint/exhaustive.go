package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// ExhaustiveAnalyzer keeps dispatch sites honest as the scheme and
// bucket-kind vocabularies grow:
//
//   - A switch over a "Kind" enum (wire.Kind, access.StepKind,
//     faults.ModelKind, multichannel.PolicyKind, aircast.TransportKind
//     — any Kind-suffixed named type declared in
//     internal/wire, internal/access, internal/faults,
//     internal/multichannel or internal/aircast) must either
//     list every package-level constant of
//     that type or carry an explicit default. Go falls through switches
//     silently, so adding KindFoo to wire without extending a switch
//     would otherwise drop buckets on the floor with no diagnostic.
//   - A switch over strings that dispatches on scheme registry names
//     (any case naming a *Name constant from a package under /schemes/)
//     must carry an explicit default: the scheme set is open — packages
//     register themselves at init time via core.Register — so no string
//     switch can ever prove itself complete.
var ExhaustiveAnalyzer = &Analyzer{
	Name: "exhaustive",
	Doc:  "require switches over bucket/step kinds to cover every constant, and scheme-name switches to carry a default",
	Run:  runExhaustive,
}

// kindEnumPackages are the module-relative packages whose Kind-suffixed
// types are treated as closed enums.
var kindEnumPackages = []string{
	"internal/wire",
	"internal/access",
	"internal/faults",
	"internal/multichannel",
	"internal/aircast",
	// The scenario compiler's token/stage/op/expr kinds: a new token or
	// stage must extend every switch in the lexer, parser, validator and
	// executor, or compilation would silently drop it.
	"internal/airql",
}

func runExhaustive(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			checkKindSwitch(pass, sw)
			checkSchemeNameSwitch(pass, sw)
			return true
		})
	}
}

// kindEnumType returns the named tag type when it is a closed Kind enum,
// or nil.
func kindEnumType(pass *Pass, tag ast.Expr) *types.Named {
	tv, ok := pass.Info.Types[tag]
	if !ok {
		return nil
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !strings.HasSuffix(obj.Name(), "Kind") {
		return nil
	}
	for _, rel := range kindEnumPackages {
		if pathEndsWith(obj.Pkg().Path(), rel) {
			return named
		}
	}
	return nil
}

func checkKindSwitch(pass *Pass, sw *ast.SwitchStmt) {
	named := kindEnumType(pass, sw.Tag)
	if named == nil {
		return
	}
	// Every package-level constant of the enum type is a required case.
	required := make(map[string]bool)
	scope := named.Obj().Pkg().Scope()
	for _, name := range scope.Names() {
		if c, ok := scope.Lookup(name).(*types.Const); ok && types.Identical(c.Type(), named) {
			required[name] = true
		}
	}
	if len(required) == 0 {
		return
	}
	covered := make(map[string]bool)
	for _, stmt := range sw.Body.List {
		cc := stmt.(*ast.CaseClause)
		if cc.List == nil {
			return // explicit default: the switch handles the unexpected
		}
		for _, e := range cc.List {
			if obj := constObject(pass, e); obj != nil {
				covered[obj.Name()] = true
			}
		}
	}
	var missing []string
	for name := range required {
		if !covered[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	pass.Reportf(sw.Switch,
		"switch over %s.%s is missing cases %s and has no default; unhandled kinds fall through silently",
		named.Obj().Pkg().Name(), named.Obj().Name(), strings.Join(missing, ", "))
}

// checkSchemeNameSwitch requires a default on any string switch that
// names scheme registry constants.
func checkSchemeNameSwitch(pass *Pass, sw *ast.SwitchStmt) {
	tv, ok := pass.Info.Types[sw.Tag]
	if !ok {
		return
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsString == 0 {
		return
	}
	dispatches := false
	for _, stmt := range sw.Body.List {
		cc := stmt.(*ast.CaseClause)
		if cc.List == nil {
			return // has a default
		}
		for _, e := range cc.List {
			obj := constObject(pass, e)
			if obj == nil || obj.Pkg() == nil {
				continue
			}
			if strings.HasSuffix(obj.Name(), "Name") && strings.Contains(obj.Pkg().Path(), "/schemes/") {
				dispatches = true
			}
		}
	}
	if dispatches {
		pass.Reportf(sw.Switch,
			"scheme-name switch has no default; the scheme registry is open (core.Register), so unknown names need an explicit arm")
	}
}

// constObject resolves a case expression to the constant it names, or
// nil for literals and non-constant expressions.
func constObject(pass *Pass, e ast.Expr) *types.Const {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	c, _ := pass.Info.Uses[id].(*types.Const)
	return c
}
