package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/airindex/airindex/internal/lint/flow"
)

// SeedTaintAnalyzer asks where every seed *came from*: every value
// feeding an RNG construction (sim.NewRNG, sim.NewShardRNG,
// sim.StreamSeed) must be data-flow-reachable from the seed plane — a Seed-named config field, a seed-named parameter, or the
// result of a sim substream derivation — even when it was laundered
// through locals, struct fields, or same-package helper returns.
//
// Lattice: a bitmask per location. seedBit marks values derived from the
// seed plane; wallBit marks values derived from package time; unknownBit
// marks everything whose provenance cannot be traced. Parameters carry
// per-parameter bits so that bounded same-package function summaries can
// substitute caller arguments at call sites.
//
// Scope: the simulation-critical packages, minus internal/sim itself
// (the substream derivations live there).
var SeedTaintAnalyzer = &Analyzer{
	Name: "seedtaint",
	Doc:  "values feeding RNG constructions must be data-flow-reachable from Config.Seed / sim.StreamSeed",
	Run:  runSeedTaint,
}

const (
	seedBit uint64 = 1 << iota
	wallBit
	unknownBit
	paramBit0 // first of up to 32 per-parameter bits
)

const maxParamBits = 32

func paramBit(i int) uint64 {
	if i >= maxParamBits {
		return unknownBit
	}
	return paramBit0 << uint(i)
}

var seedTaintExempt = []string{"internal/sim"}

func seedTaintScope(rel string) bool {
	if underAny(rel, seedTaintExempt) {
		return false
	}
	return underAny(rel, simCritical)
}

func runSeedTaint(pass *Pass) {
	if !seedTaintScope(pass.RelPath) {
		return
	}
	st := &seedTaintPkg{pass: pass, summaries: make(map[*types.Func][]uint64)}
	st.computeSummaries()
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			st.checkFunc(fd)
		}
	}
}

type seedTaintPkg struct {
	pass *Pass
	// summaries maps a package-level function to the taint bits of each
	// of its results, with paramBit(i) standing for "whatever the caller
	// passes as argument i". Methods are not summarized (receiver flow is
	// out of scope); calls to them evaluate to unknown unless they are
	// sim constructors.
	summaries map[*types.Func][]uint64
}

// computeSummaries runs a bounded fixpoint over the package's function
// declarations so that seeds laundered through same-package helper
// returns stay traceable. The lattice is finite (bit union) and the
// iteration is capped defensively.
func (st *seedTaintPkg) computeSummaries() {
	var fns []*ast.FuncDecl
	for _, f := range st.pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv != nil {
				continue
			}
			if fd.Type.Results == nil || len(fd.Type.Results.List) == 0 {
				continue
			}
			fns = append(fns, fd)
		}
	}
	for iter := 0; iter < len(fns)+2; iter++ {
		changed := false
		for _, fd := range fns {
			obj, ok := st.pass.Info.ObjectOf(fd.Name).(*types.Func)
			if !ok {
				continue
			}
			sum := st.summarize(fd)
			old := st.summaries[obj]
			if !equalBits(old, sum) {
				st.summaries[obj] = joinSummaries(old, sum)
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

func equalBits(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func joinSummaries(a, b []uint64) []uint64 {
	if len(a) < len(b) {
		a, b = b, a
	}
	out := append([]uint64(nil), a...)
	for i := range b {
		out[i] |= b[i]
	}
	return out
}

// summarize computes the taint of each return value of fd under the
// current summaries.
func (st *seedTaintPkg) summarize(fd *ast.FuncDecl) []uint64 {
	nres := fd.Type.Results.NumFields()
	sum := make([]uint64, nres)

	g := flow.New(fd.Body)
	l := st.lattice(fd)
	flow.ForwardVisit(g, l, func(n ast.Node, before flow.Store[uint64]) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		if len(ret.Results) == 0 {
			return // named results; conservatively left at zero
		}
		if len(ret.Results) == nres {
			for i, e := range ret.Results {
				sum[i] |= st.eval(e, before)
			}
		} else if len(ret.Results) == 1 {
			// return f() fanning out to multiple results: smear.
			v := st.eval(ret.Results[0], before)
			for i := range sum {
				sum[i] |= v
			}
		}
	})
	return sum
}

// lattice builds the per-function taint lattice, seeding the store with
// the function's parameters: seed-named parameters are seed-derived,
// others carry their positional bit.
func (st *seedTaintPkg) lattice(fd *ast.FuncDecl) flow.Lattice[flow.Store[uint64]] {
	init := flow.Store[uint64]{}
	idx := 0
	if fd.Type.Params != nil {
		for _, fld := range fd.Type.Params.List {
			for _, name := range fld.Names {
				if obj, ok := st.pass.Info.ObjectOf(name).(*types.Var); ok {
					if isSeedName(name.Name) {
						init[flow.Ref{Obj: obj}] = seedBit
					} else {
						init[flow.Ref{Obj: obj}] = paramBit(idx)
					}
				}
				idx++
			}
			if len(fld.Names) == 0 {
				idx++
			}
		}
	}
	return flow.Lattice[flow.Store[uint64]]{
		Init: init,
		Join: func(a, b flow.Store[uint64]) flow.Store[uint64] {
			return flow.JoinStores(a, b, func(x, y uint64) uint64 { return x | y })
		},
		Equal:    flow.Store[uint64].Equal,
		Transfer: st.transfer,
	}
}

func (st *seedTaintPkg) transfer(n ast.Node, in flow.Store[uint64]) flow.Store[uint64] {
	out := in.Clone()
	switch n := n.(type) {
	case *ast.AssignStmt, *ast.DeclStmt:
		compound := false
		if a, ok := n.(*ast.AssignStmt); ok {
			compound = a.Tok != token.ASSIGN && a.Tok != token.DEFINE
		}
		for _, as := range flow.Assignments(n) {
			var v uint64
			if as.Rhs != nil {
				v = st.eval(as.Rhs, out)
				if as.TupleIndex >= 0 {
					// Multi-result call: the whole tuple shares the join.
					// (Per-slot summaries apply only to direct calls.)
					if call, ok := unparen(as.Rhs).(*ast.CallExpr); ok {
						if slots := st.callSummary(call, out); slots != nil && as.TupleIndex < len(slots) {
							v = slots[as.TupleIndex]
						}
					}
				}
			}
			if r, ok := flow.RefOf(st.pass.Info, as.Lhs); ok {
				if compound {
					if old, ok := out.Get(r); ok {
						v |= old
					}
				}
				out.Set(r, v)
			}
		}
	case *ast.RangeStmt:
		// Values drawn from a ranged collection inherit its taint.
		src := st.eval(n.X, out)
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if e == nil {
				continue
			}
			if r, ok := flow.RefOf(st.pass.Info, e); ok {
				out.Set(r, src)
			}
		}
	}
	return out
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// isSeedName reports whether a parameter or field name marks the value
// as part of the seed plane by convention.
func isSeedName(name string) bool {
	return strings.EqualFold(name, "seed") || strings.HasSuffix(name, "Seed")
}

// eval computes the taint bits of an expression.
func (st *seedTaintPkg) eval(e ast.Expr, s flow.Store[uint64]) uint64 {
	// Compile-time constants are part of the program text, not a
	// laundering channel.
	if tv, ok := st.pass.Info.Types[e]; ok && tv.Value != nil {
		return 0
	}
	switch e := e.(type) {
	case *ast.Ident:
		if r, ok := flow.RefOf(st.pass.Info, e); ok {
			if v, ok := s.Get(r); ok {
				return v
			}
			if isSeedName(e.Name) {
				return seedBit
			}
			return unknownBit
		}
		return unknownBit
	case *ast.SelectorExpr:
		// An explicit assignment to this exact location wins; otherwise
		// the naming convention does — a field called Seed *is* the seed
		// plane (core.Config.Seed, a shard runner's seed cache) no matter
		// what struct value carries it. Only then fall back to the taint
		// of the enclosing value.
		if r, ok := flow.RefOf(st.pass.Info, e); ok {
			if v, ok := s[r]; ok {
				return v
			}
			if isSeedName(e.Sel.Name) {
				return seedBit
			}
			if v, ok := s.Get(r); ok {
				return v
			}
			return unknownBit
		}
		if isSeedName(e.Sel.Name) {
			return seedBit
		}
		return unknownBit
	case *ast.StarExpr:
		if r, ok := flow.RefOf(st.pass.Info, e); ok {
			if v, ok := s.Get(r); ok {
				return v
			}
		}
		return unknownBit
	case *ast.ParenExpr:
		return st.eval(e.X, s)
	case *ast.UnaryExpr:
		return st.eval(e.X, s)
	case *ast.BinaryExpr:
		return st.eval(e.X, s) | st.eval(e.Y, s)
	case *ast.CallExpr:
		if slots := st.callSummary(e, s); slots != nil {
			v := uint64(0)
			for _, sv := range slots {
				v |= sv
			}
			return v
		}
		return unknownBit
	case *ast.IndexExpr:
		return st.eval(e.X, s) | st.eval(e.Index, s)
	case *ast.CompositeLit:
		var v uint64
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			v |= st.eval(el, s)
		}
		return v
	case *ast.TypeAssertExpr:
		return st.eval(e.X, s)
	}
	return unknownBit
}

// callSummary evaluates a call's per-result taint, or nil when the
// callee has no usable summary. Handles: conversions, sim substream
// derivations (seed-producing), package time (wall-producing), and
// same-package function summaries with argument substitution.
func (st *seedTaintPkg) callSummary(call *ast.CallExpr, s flow.Store[uint64]) []uint64 {
	// Type conversion: taint passes through unchanged.
	if fn := unparen(call.Fun); len(call.Args) == 1 {
		if tv, ok := st.pass.Info.Types[fn]; ok && tv.IsType() {
			return []uint64{st.eval(call.Args[0], s)}
		}
	}
	callee := typeutilCallee(st.pass.Info, call)
	if callee == nil {
		return nil
	}
	if pkg := callee.Pkg(); pkg != nil {
		if pkg.Path() == "time" {
			return []uint64{wallBit}
		}
		if isSimPkgPath(pkg.Path()) {
			switch callee.Name() {
			case "StreamSeed", "SplitMix":
				// The derivation output is seed-plane by construction;
				// its *input* is checked at the call site by checkFunc.
				return []uint64{seedBit}
			}
			return nil
		}
	}
	if slots, ok := st.summaries[callee]; ok {
		// Substitute caller arguments for parameter bits.
		out := make([]uint64, len(slots))
		for i, bits := range slots {
			v := bits & (seedBit | wallBit | unknownBit)
			for p := 0; p < maxParamBits; p++ {
				if bits&paramBit(p) == 0 {
					continue
				}
				if p < len(call.Args) {
					v |= st.eval(call.Args[p], s)
				} else {
					v |= unknownBit
				}
			}
			out[i] = v
		}
		return out
	}
	return nil
}

// typeutilCallee resolves the *types.Func a call invokes, or nil for
// builtins, conversions and indirect calls.
func typeutilCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.ObjectOf(fun).(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.ObjectOf(fun.Sel).(*types.Func)
		return fn
	}
	return nil
}

func isSimPkgPath(path string) bool {
	return path == "internal/sim" || strings.HasSuffix(path, "/internal/sim")
}

// checkFunc runs the taint analysis over fd and validates every RNG
// construction site and Seed-field write it contains.
func (st *seedTaintPkg) checkFunc(fd *ast.FuncDecl) {
	g := flow.New(fd.Body)
	l := st.lattice(fd)
	flow.ForwardVisit(g, l, func(n ast.Node, before flow.Store[uint64]) {
		// RNG construction sites anywhere in the node.
		flow.InspectNode(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, isCtor := rngCtorName(st.pass.Info, call)
			if !isCtor || len(call.Args) == 0 {
				return true
			}
			bits := st.eval(call.Args[0], before)
			st.reportBadSeed(call.Args[0].Pos(), name, bits)
			return true
		})
		// Writes into Seed-named fields (the seed plane itself) must be
		// seed- or constant-derived.
		switch stn := n.(type) {
		case *ast.AssignStmt, *ast.DeclStmt:
			for _, as := range flow.Assignments(stn) {
				sel, ok := as.Lhs.(*ast.SelectorExpr)
				if !ok || !isSeedName(sel.Sel.Name) || as.Rhs == nil {
					continue
				}
				bits := st.eval(as.Rhs, before)
				if bits&(wallBit|unknownBit) != 0 {
					st.reportBadSeed(as.Rhs.Pos(), "field "+sel.Sel.Name, bits)
				}
			}
		}
	})
}

// rngCtorName reports whether call constructs an RNG or derives a
// substream from the sim package, returning a human name for messages.
func rngCtorName(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := typeutilCallee(info, call)
	if fn == nil || fn.Pkg() == nil || !isSimPkgPath(fn.Pkg().Path()) {
		return "", false
	}
	switch fn.Name() {
	case "NewRNG", "NewShardRNG", "StreamSeed":
		return "sim." + fn.Name(), true
	}
	return "", false
}

func (st *seedTaintPkg) reportBadSeed(pos token.Pos, site string, bits uint64) {
	switch {
	case bits&wallBit != 0:
		st.pass.Reportf(pos, "seed for %s derives from the wall clock (package time); seeds must be data-flow-reachable from Config.Seed or sim.StreamSeed so runs replay exactly", site)
	case bits&unknownBit != 0:
		st.pass.Reportf(pos, "seed for %s is not data-flow-reachable from the seed plane (Config.Seed, a seed-named parameter, or a sim.StreamSeed/SplitMix derivation)", site)
	case bits&^seedBit != 0:
		// Derived only from non-seed-named parameters: the value may well
		// be a seed, but the contract is that seed-carrying parameters
		// are named so reviewers and this analyzer can see the plane.
		st.pass.Reportf(pos, "seed for %s flows from a parameter not named like a seed; rename the parameter (e.g. seed int64) to keep the seed plane traceable", site)
	}
}
