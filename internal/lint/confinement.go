package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// sanctionedConcurrency lists the only files allowed to spawn goroutines
// and use fan-out primitives: the scenario compiler's whole-run fan-out
// and the core run driver's wave barrier. Keeping the rest of
// the simulation kernel single-threaded by construction is what lets
// `go test` and `go test -race` agree with the paper's sequential
// byte-clock semantics; parallelism exists only where every unit of work
// (a run, a shard) is independently seeded and merged deterministically.
var sanctionedConcurrency = []string{
	"internal/core/engine.go",
	"internal/airql/parallel.go",
}

// sanctionedConcurrencyDirs extends the allowlist to whole packages. A
// live network daemon is concurrent by its nature — internal/aircast
// owns a broadcast loop, listener acceptors and per-reader writer
// goroutines, all joined behind Server.Stop — so the package is
// sanctioned as a unit rather than file by file. The simulation kernel
// it frames stays single-threaded: every bucket image is built before
// the goroutines start, and the e2e tests pin the live path bit-exact
// against the sequential walker.
var sanctionedConcurrencyDirs = []string{
	"internal/aircast",
}

// sanctionedList is the allowlist formatted for diagnostics.
var sanctionedList = strings.Join(append(append([]string{}, sanctionedConcurrency...), sanctionedConcurrencyDirs...), " or ")

func isSanctioned(file string) bool {
	for _, s := range sanctionedConcurrency {
		if file == s {
			return true
		}
	}
	for _, d := range sanctionedConcurrencyDirs {
		if strings.HasPrefix(file, d+"/") {
			return true
		}
	}
	return false
}

// ConfinementAnalyzer flags `go` statements, sync.WaitGroup usage, and
// channel construction (`make(chan ...)`) outside the sanctioned
// concurrency layer.
var ConfinementAnalyzer = &Analyzer{
	Name: "confinement",
	Doc:  "restrict goroutines, WaitGroups and channel fan-out to " + sanctionedList,
	Run:  runConfinement,
}

func runConfinement(pass *Pass) {
	for _, f := range pass.Files {
		if isSanctioned(pass.RelFile[f]) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Go, "go statement outside %s; the sim kernel is single-threaded by construction", sanctionedList)
			case *ast.SelectorExpr:
				if obj, ok := pass.Info.Uses[n.Sel]; ok && isSyncFanOut(obj) {
					pass.Reportf(n.Pos(), "sync.%s outside %s; fan-out belongs to the sanctioned concurrency layer", obj.Name(), sanctionedList)
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "make" && len(n.Args) > 0 {
					if _, isChan := n.Args[0].(*ast.ChanType); isChan {
						pass.Reportf(n.Pos(), "channel construction outside %s; fan-out belongs to the sanctioned concurrency layer", sanctionedList)
					}
				}
			}
			return true
		})
	}
}

// isSyncFanOut reports whether obj is a fan-out primitive from package
// sync. Plain mutexes (sync.Mutex, sync.RWMutex, sync.Once) are allowed
// everywhere — they guard shared state but cannot create concurrency.
func isSyncFanOut(obj types.Object) bool {
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	switch obj.Name() {
	case "WaitGroup", "Cond":
		return true
	}
	return false
}
