package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// RNGDisciplineAnalyzer enforces the substream contract of DESIGN.md §7:
// every random decision in a simulation-critical package derives from
// the seed through sim.NewRNG, sim.NewShardRNG or sim.StreamSeed, and
// every StreamSeed substream carries a distinct compile-time string
// label. The determinism analyzer already rejects *global* randomness;
// this one polices how seeded randomness is constructed:
//
//   - direct math/rand construction (rand.New, rand.NewSource,
//     rand.NewZipf) outside internal/sim bypasses the SplitMix
//     decorrelation and is flagged;
//   - a StreamSeed label must be a non-empty compile-time string
//     literal — a computed label cannot be audited for uniqueness;
//   - reusing a label, within or across packages, is flagged at every
//     site after the first: identical labels yield identical
//     substreams, silently correlating supposedly independent
//     processes. Cross-package duplicates are only visible to CheckAll,
//     which sees every call site in one run.
//
// Where a seed comes from (the wall clock, or anything else off the seed
// plane) is seedtaint's question, answered by dataflow.
var RNGDisciplineAnalyzer = &Analyzer{
	Name: "rngdiscipline",
	Doc:  "randomness must derive from sim.StreamSeed/NewShardRNG with distinct string-literal labels",
	Run:  runRNGDiscipline,
}

// rngExempt: internal/sim owns the sanctioned constructors, so it alone
// may touch math/rand directly.
var rngExempt = []string{"internal/sim"}

// simRNGFunc returns the *types.Func when call invokes a function of a
// package whose path ends in internal/sim (real module or fixture).
func simRNGFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.Info.Uses[fun.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || !pathEndsWith(fn.Pkg().Path(), "internal/sim") {
		return nil
	}
	return fn
}

func runRNGDiscipline(pass *Pass) {
	inScope := underAny(pass.RelPath, simCritical) && !underAny(pass.RelPath, rngExempt)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && inScope {
				if obj, ok := pass.Info.Uses[sel.Sel].(*types.Func); ok && obj.Pkg() != nil && obj.Pkg().Path() == "math/rand" {
					switch obj.Name() {
					case "New", "NewSource", "NewZipf":
						pass.Reportf(call.Pos(),
							"direct math/rand construction in a simulation-critical package; derive substreams through sim.NewRNG, sim.NewShardRNG or sim.StreamSeed so shards stay decorrelated")
					}
				}
			}
			if fn := simRNGFunc(pass, call); fn != nil && fn.Name() == "StreamSeed" {
				checkStreamSeedLabel(pass, call)
			}
			return true
		})
	}
}

// checkStreamSeedLabel requires the label argument of
// StreamSeed(seed, shard, label) to be a non-empty compile-time string.
func checkStreamSeedLabel(pass *Pass, call *ast.CallExpr) {
	if len(call.Args) != 3 {
		return
	}
	arg := call.Args[2]
	tv, ok := pass.Info.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		pass.Reportf(arg.Pos(),
			"StreamSeed label must be a compile-time string literal; a computed label cannot be audited for substream uniqueness")
		return
	}
	if constant.StringVal(tv.Value) == "" {
		pass.Reportf(arg.Pos(),
			"StreamSeed label is empty; name the substream so its identity is auditable")
	}
}

// streamSeedDuplicates scans every StreamSeed call site across the
// loaded packages, in package order, and reports each constant label
// reuse at the site after the first. Returned diagnostics are keyed by
// package index so CheckOnly can route them through that package's
// directives.
func streamSeedDuplicates(pkgs []*Package) map[int][]Diagnostic {
	type site struct {
		pkgIdx int
		pos    token.Position
		label  string
	}
	var sites []site
	for i, pkg := range pkgs {
		// A throwaway Pass gives simRNGFunc its usual shape; nothing is
		// reported through it.
		p := &Pass{Info: pkg.Info}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := simRNGFunc(p, call)
				if fn == nil || fn.Name() != "StreamSeed" || len(call.Args) != 3 {
					return true
				}
				tv, ok := pkg.Info.Types[call.Args[2]]
				if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
					return true // non-literal labels are reported per package
				}
				label := constant.StringVal(tv.Value)
				if label == "" {
					return true
				}
				sites = append(sites, site{pkgIdx: i, pos: pkg.Fset.Position(call.Args[2].Pos()), label: label})
				return true
			})
		}
	}
	first := make(map[string]token.Position)
	out := make(map[int][]Diagnostic)
	for _, s := range sites {
		if prev, ok := first[s.label]; ok {
			out[s.pkgIdx] = append(out[s.pkgIdx], Diagnostic{
				Pos:      s.pos,
				Analyzer: RNGDisciplineAnalyzer.Name,
				Message:  fmt.Sprintf("StreamSeed label %q is already used at %s; duplicate labels yield identical substreams, silently correlating independent processes", s.label, prev),
			})
		} else {
			first[s.label] = s.pos
		}
	}
	return out
}
