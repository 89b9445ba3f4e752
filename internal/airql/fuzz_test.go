package airql

import (
	"strings"
	"testing"

	"github.com/airindex/airindex/internal/core"
	"github.com/airindex/airindex/scenarios"
)

// FuzzCompile drives the whole compiler front end — lexer, parser,
// validator — over arbitrary input. The contract under fuzzing: never
// panic; every rejection is an *Error or ErrorList whose diagnostics all
// carry a 1-based line:col position; and a script Compile accepts builds,
// under both profiles, only point configs core.Config.Validate accepts,
// and evaluates its x, COL and NOTE nodes at every row (evalTables).
// Run with
//
//	go test -fuzz=FuzzCompile ./internal/airql
func FuzzCompile(f *testing.F) {
	for _, name := range scenarios.Names() {
		src, err := scenarios.Source(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	f.Add(`SWEEP scheme=flat,bdisk,dist k=1,2,4,8 faultrate=0..0.10:0.02 | RUN seed=42 shards=4 mode=sim | EMIT csv(results/multich-at.csv) summary(stdout)`)
	f.Add("SWEEP k=1..8:1 fast(1,2,4,8)\nSET records=10000 fast(2500)")
	f.Add(`TABLE "a-b" title("t") x(k) | COL "c" mean(access){scheme=flat} / requests`)
	f.Add("NOTE \"workload: {records} records; {count(k)} points\"")
	f.Add("SET switchcost=1KiB zipfs=1.5 # comment\n")
	f.Add("SWEEP x=\"")
	f.Add("SWEEP x=1..")
	f.Add("COL")
	// Scripts whose points each fail core.Config.Validate.
	for _, set := range []string{
		"SET scheme=flat zipfs=2",
		"SET scheme=flat availability=0.5 fault.rate=0.01",
		"SET scheme=onem multi.channels=2 multi.policy=indexdata multi.indexchannels=2",
		"SET scheme=sig signature.sigbytes=4 signature.bits=40",
		"SET scheme=hash hashing.load=0.5",
		"SET scheme=flat data.recordbytes=10",
		"SET scheme=flat multi.switchcost=64",
	} {
		f.Add("SWEEP records=1,1000\n" + set + "\nTABLE t x(records)\nCOL \"a\" mean(access)\n")
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Compile("fuzz.airql", src)
		if err == nil {
			if prog == nil {
				t.Fatal("nil program with nil error")
			}
			for _, fast := range []bool{false, true} {
				ex := newExecutor(prog, Options{Fast: fast})
				ex.cfgs = make([]core.Config, ex.total)
				errs := ex.pointConfigs(func(li int, cfg *core.Config) {
					if err := cfg.Validate(); err != nil {
						t.Fatalf("Compile accepted a point Validate rejects: %v", err)
					}
					ex.cfgs[li] = *cfg
				})
				if errs != nil {
					t.Fatalf("Compile accepted a script whose points fail: %v", errs)
				}
				evalTables(t, ex)
			}
			return
		}
		var diags []*Error
		switch e := err.(type) {
		case *Error:
			diags = []*Error{e}
		case ErrorList:
			if len(e) == 0 {
				t.Fatal("empty ErrorList returned as an error")
			}
			diags = e
		default:
			t.Fatalf("Compile returned %T, want *Error or ErrorList", err)
		}
		for _, d := range diags {
			if d.Pos.Line < 1 || d.Pos.Col < 1 {
				t.Fatalf("diagnostic without a position: %+v", d)
			}
			if !strings.HasPrefix(d.Error(), "fuzz.airql:") {
				t.Fatalf("diagnostic %q does not lead with file:line:col", d.Error())
			}
		}
	})
}

// evalTables evaluates every x, COL and NOTE node of an accepted program
// at every row under ex's profile, over synthetic results (zero
// statistics and an empty Params map), and fails when a numeric node
// reads a name.
func evalTables(t *testing.T, ex *executor) {
	t.Helper()
	res := &core.Result{Params: map[string]float64{}}
	ex.results = make([]*core.Result, ex.total)
	for i := range ex.results {
		ex.results[i] = res
	}
	ex.attrs = make([]attrRow, ex.total)
	decls := ex.prog.Tables
	if len(decls) == 0 {
		decls = ex.prog.implicit[ex.profile : ex.profile+1]
	}
	for _, decl := range decls {
		// Only the x axis is bound: a node reading any other axis fails.
		idx := make([]int, len(ex.axes))
		for i := range idx {
			idx[i] = -1
		}
		for idx[decl.xAxis] = range ex.axes[decl.xAxis].vals {
			numeric(t, ex, idx, decl.x)
			for i := range decl.Cols {
				numeric(t, ex, idx, decl.Cols[i].node)
			}
		}
		for _, note := range decl.Notes {
			for _, part := range note.Parts {
				if part.node != nil {
					operands(t, ex, nil, part.node)
				}
			}
		}
		ex.buildTable(decl)
	}
}

// numeric fails t when n, or an operand of an arithmetic node under it,
// evaluates to a name.
func numeric(t *testing.T, ex *executor, idx []int, n *node) {
	t.Helper()
	if v := n.eval(ex, idx); v.IsStr {
		t.Fatalf("a numeric node evaluates to the name %q", v.Str)
	}
	operands(t, ex, idx, n)
}

func operands(t *testing.T, ex *executor, idx []int, n *node) {
	t.Helper()
	if n.x != nil {
		numeric(t, ex, idx, n.x)
	}
	if n.y != nil {
		numeric(t, ex, idx, n.y)
	}
}
