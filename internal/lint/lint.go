// Package lint implements airlint, the project's static-analysis suite.
//
// The testbed's central guarantee is that every simulated run is exactly
// replayable from its seed (DESIGN.md §1). airlint enforces the coding
// contract that keeps the guarantee true as the codebase grows:
//
//   - determinism: no wall-clock reads, no global math/rand, and no
//     direct math/rand construction in the simulation-critical packages
//     outside internal/sim (see determinism.go);
//   - floatcompare: no exact ==/!= between floats in the analytical and
//     stats packages (see floatcompare.go);
//   - confinement: no goroutines, WaitGroups or channel fan-out outside
//     the sanctioned concurrency layer (see confinement.go);
//   - unitsafety: no conversions or arithmetic that launder one
//     internal/units measurement unit into another (see unitsafety.go);
//   - exhaustive: switches over bucket/step kinds must cover every
//     constant, and scheme-name dispatches must carry a default
//     (see exhaustive.go);
//   - mergecomplete: every counter/statistic field of a merged result
//     struct must be combined in its Merge/merge function, so a new
//     metric cannot be silently dropped at the shard barrier
//     (see mergecomplete.go);
//   - byteclock: broadcast-image bytes are consumed only through the
//     clock-charging channel APIs — no decoding or cache reads that
//     bypass access/tuning accounting (see byteclock.go);
//   - hotalloc: functions marked `//airlint:hotpath` must be
//     allocation-free at the AST level: no closures, interface boxing,
//     map/slice literals, append, fmt, or string concatenation
//     (see hotalloc.go);
//   - maporder: flow-sensitive — a value produced by ranging over a map
//     is tainted "unordered" and may not reach a core.Result field, the
//     experiment table emitters, an fmt/writer sink, or (in the
//     simulation-critical packages) a return, unless a
//     sort.*/slices.Sort* call kills the taint (see maporder.go);
//   - seedtaint: flow-sensitive — every value feeding an RNG
//     construction must be data-flow-reachable from Config.Seed, a
//     seed-named parameter, or a sim.StreamSeed derivation, through
//     locals, struct fields and same-package helper returns
//     (see seedtaint.go);
//   - escapecheck: cross-checks `//airlint:hotpath` functions against
//     the compiler's actual escape analysis (`go build -gcflags='-m
//     -m'`); runs only when escape data is supplied (airlint -escape)
//     (see escapecheck.go);
//   - directive: `//airlint:allow <analyzer> <reason>` suppressions and
//     the `//airlint:hotpath` marker, with unknown verbs, unknown
//     analyzers, unused suppressions and misplaced markers reported as
//     errors; files carrying a standard "Code generated ... DO NOT
//     EDIT." header are exempt from analysis (see directive.go).
//
// StreamSeed label uniqueness is not an analyzer: the sim package's
// TestStreamSeedLabelsUnique scans every call site in the module.
//
// Everything is built on the standard library only (go/ast, go/parser,
// go/token, go/types); there are no module dependencies.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned for file:line:col reporting.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named check run over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one package's syntax and type information through an
// analyzer, mirroring (in miniature) golang.org/x/tools/go/analysis.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// RelPath is the package directory relative to the module root using
	// forward slashes (e.g. "internal/sim"). Analyzers use it to scope
	// rules to the simulation-critical packages.
	RelPath string

	// RelFile maps each file to its module-relative path (e.g.
	// "internal/airql/parallel.go").
	RelFile map[*ast.File]string

	// Escapes holds the compiler escape diagnostics for the build, when
	// the caller supplied them (Options.Escapes). Nil in ordinary runs;
	// escapecheck is skipped without it.
	Escapes *EscapeData

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// simCritical lists the packages whose behaviour must be byte-for-byte
// replayable from a seed. Subdirectories are included.
var simCritical = []string{
	"internal/sim",
	"internal/schemes",
	"internal/core",
	"internal/channel",
	"internal/access",
	"internal/stats",
	// The unreliable-channel layer draws every fault decision from the
	// splitmix(seed, shard, "faults") substream, so it is as replay-
	// critical as the arrival process. It needs no entry in the
	// confinement allowlist: injectors are plain per-shard state machines
	// and spawn no goroutines.
	"internal/faults",
	// The channel-allocation layer decides which physical channel carries
	// every bucket and when a walker hops; any nondeterminism there would
	// desynchronize the K=1 differential gate, so it is in scope too.
	"internal/multichannel",
	// The scenario compiler and executor assemble every result table the
	// regen gate byte-diffs, so map-iteration order and RNG discipline
	// there are as replay-critical as the kernel itself.
	"internal/airql",
}

// underAny reports whether rel is one of the given module-relative
// directories or below one of them.
func underAny(rel string, dirs []string) bool {
	for _, d := range dirs {
		if rel == d || strings.HasPrefix(rel, d+"/") {
			return true
		}
	}
	return false
}

// Analyzers returns the full airlint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer, FloatCompareAnalyzer, ConfinementAnalyzer,
		UnitSafetyAnalyzer, ExhaustiveAnalyzer,
		MergeCompleteAnalyzer, ByteClockAnalyzer, HotAllocAnalyzer,
		MapOrderAnalyzer, SeedTaintAnalyzer, EscapeCheckAnalyzer,
	}
}

// Options configures a check run.
type Options struct {
	// Only restricts the run to the named analyzers; empty means all.
	Only []string
	// Escapes supplies compiler escape diagnostics (RunEscapeBuild).
	// Without it, escapecheck is skipped — and its //airlint:allow
	// suppressions are ignored rather than reported stale, so ordinary
	// runs never demand a -gcflags build.
	Escapes *EscapeData
}

// Check runs the selected analyzers over the packages, applies
// `//airlint:allow` suppressions, and returns the surviving diagnostics
// sorted by position. Directive errors (unknown verb or analyzer,
// missing reason, unused suppression, misplaced hotpath marker) are
// returned as diagnostics of the "directive" analyzer; directive
// checking always runs, but allow directives for deselected analyzers
// are ignored rather than reported unused. An unknown analyzer name in
// opts.Only is an error.
func Check(pkgs []*Package, opts Options) ([]Diagnostic, error) {
	known := make(map[string]bool)
	var names []string
	for _, a := range Analyzers() {
		known[a.Name] = true
		names = append(names, a.Name)
	}
	sort.Strings(names)
	active := make(map[string]bool)
	if len(opts.Only) == 0 {
		for n := range known {
			active[n] = true
		}
	} else {
		for _, n := range opts.Only {
			if !known[n] {
				return nil, fmt.Errorf("lint: unknown analyzer %q (known: %s)", n, strings.Join(names, ", "))
			}
			active[n] = true
		}
	}
	if opts.Escapes == nil {
		if len(opts.Only) > 0 && active[EscapeCheckAnalyzer.Name] {
			return nil, fmt.Errorf("lint: analyzer %q needs compiler escape data; run airlint with -escape", EscapeCheckAnalyzer.Name)
		}
		delete(active, EscapeCheckAnalyzer.Name)
	}

	var diags []Diagnostic
	for _, pkg := range pkgs {
		var raw []Diagnostic
		for _, a := range Analyzers() {
			if !active[a.Name] {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				RelPath:  pkg.RelPath,
				RelFile:  pkg.RelFile,
				Escapes:  opts.Escapes,
				diags:    &raw,
			}
			a.Run(pass)
		}
		diags = append(diags, applyDirectives(pkg, raw, active)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}
