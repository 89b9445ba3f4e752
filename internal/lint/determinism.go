package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DeterminismAnalyzer enforces the replayability contract: a run's output
// is a pure function of its config and seed.
//
// Everywhere (outside test files) it forbids wall-clock and timer calls
// (time.Now, time.Sleep, time.Since, ...) and the global top-level
// math/rand functions — all randomness must flow through sim.RNG, which
// carries an explicit seed. The deterministic constructors (rand.New,
// rand.NewSource, rand.NewZipf, and v2's rand.NewPCG and
// rand.NewChaCha8) are permitted.
//
// Inside the simulation-critical packages, internal/sim excepted, even
// the seeded constructors are flagged: a source built directly bypasses
// the SplitMix decorrelation of sim.NewRNG, sim.NewShardRNG and
// sim.StreamSeed, so shards could draw correlated streams. internal/sim
// owns those constructors and alone may touch math/rand directly.
//
// One package is sanctioned for wall-clock use: internal/aircast, the
// live broadcast daemon, whose pacer exists to map the byte-clock onto
// real time (DESIGN.md §10). Determinism there holds at the edges — the
// broadcast image is a pure function of the build inputs and the chaos
// proxy draws from a seeded faults.Injector substream — so only the
// `time` ban is lifted; the math/rand bans still apply.
//
// Map-iteration order is maporder's, tracked by dataflow.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock reads, global math/rand, and direct math/rand construction in simulation packages",
	Run:  runDeterminism,
}

// wallClockFuncs are the package-level time functions that read the wall
// clock or real timers.
var wallClockFuncs = map[string]bool{
	"Now": true, "Sleep": true, "Since": true, "Until": true,
	"After": true, "Tick": true, "NewTicker": true, "NewTimer": true,
	"AfterFunc": true,
}

// seededRandFuncs are the math/rand and math/rand/v2 constructors that
// take an explicit seed or source and are therefore deterministic.
var seededRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// wallClockSanctioned are the packages whose job is to bridge the
// byte-clock to real time; only the `time` ban is lifted for them.
var wallClockSanctioned = []string{
	"internal/aircast",
}

// randConstructExempt owns the sanctioned RNG constructors.
var randConstructExempt = []string{"internal/sim"}

func runDeterminism(pass *Pass) {
	timeSanctioned := underAny(pass.RelPath, wallClockSanctioned)
	for id, obj := range pass.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			continue
		}
		// Only package-level functions: methods on *rand.Rand or
		// time.Time values are either seeded or pure arithmetic.
		if fn.Parent() != fn.Pkg().Scope() {
			continue
		}
		switch fn.Pkg().Path() {
		case "time":
			if wallClockFuncs[fn.Name()] && !timeSanctioned {
				pass.Reportf(id.Pos(), "call to time.%s reads the wall clock; simulated runs must be replayable from their seed (use sim.Time byte-clock instead)", fn.Name())
			}
		case "math/rand", "math/rand/v2":
			if !seededRandFuncs[fn.Name()] {
				pass.Reportf(id.Pos(), "top-level rand.%s uses process-global randomness; draw through sim.RNG (or an explicitly seeded rand.New) instead", fn.Name())
			}
		}
	}

	if !underAny(pass.RelPath, simCritical) || underAny(pass.RelPath, randConstructExempt) {
		return
	}
	// One finding per construction: rand.New(rand.NewPCG(seed, 1)) is
	// reported at the outer call, and nested constructors are skipped.
	for _, f := range pass.Files {
		var covered token.Pos
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || call.Pos() < covered {
				return true
			}
			fn := typeutilCallee(pass.Info, call)
			if fn == nil || fn.Pkg() == nil || !seededRandFuncs[fn.Name()] {
				return true
			}
			if p := fn.Pkg().Path(); p == "math/rand" || p == "math/rand/v2" {
				pass.Reportf(call.Pos(), "direct math/rand construction in a simulation-critical package; derive substreams through sim.NewRNG, sim.NewShardRNG or sim.StreamSeed so shards stay decorrelated")
				covered = call.End()
			}
			return true
		})
	}
}
