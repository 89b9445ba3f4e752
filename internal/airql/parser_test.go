package airql

import (
	"math"
	"strings"
	"testing"
)

// TestPipeAndNewlineEquivalent: the one-line pipeline form and the
// stage-per-line form parse to the same program shape.
func TestPipeAndNewlineEquivalent(t *testing.T) {
	oneLine := `SWEEP scheme=flat,dist | RUN seed=42 shards=4 mode=sim | EMIT csv(results/x.csv) summary(stdout)`
	multiLine := `
SWEEP scheme=flat,dist
RUN seed=42 shards=4 mode=sim
EMIT csv(results/x.csv) summary(stdout)
`
	a, err := Parse("a.airql", oneLine)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse("b.airql", multiLine)
	if err != nil {
		t.Fatal(err)
	}
	for _, prog := range []*Program{a, b} {
		if len(prog.Axes) != 1 || prog.Axes[0].Name != "scheme" || len(prog.Axes[0].Values) != 2 {
			t.Fatalf("axes parsed wrong: %+v", prog.Axes)
		}
		if len(prog.Runs) != 3 || prog.Runs[0].Key != "seed" || prog.Runs[1].Key != "shards" || prog.Runs[2].Key != "mode" {
			t.Fatalf("runs parsed wrong: %+v", prog.Runs)
		}
		if len(prog.LooseSinks) != 2 || prog.LooseSinks[0].Name != "csv" || prog.LooseSinks[1].Name != "summary" {
			t.Fatalf("sinks parsed wrong: %+v", prog.LooseSinks)
		}
	}
	if a.LooseSinks[0].Arg != "results/x.csv" {
		t.Fatalf("csv sink arg %q", a.LooseSinks[0].Arg)
	}
}

// TestRangeExpansion: lo..hi:step expands eagerly and includes the
// endpoint.
func TestRangeExpansion(t *testing.T) {
	prog, err := Parse("t.airql", `SWEEP faultrate=0..0.10:0.02`)
	if err != nil {
		t.Fatal(err)
	}
	vals := prog.Axes[0].Values
	want := []float64{0, 0.02, 0.04, 0.06, 0.08, 0.10}
	if len(vals) != len(want) {
		t.Fatalf("range expanded to %d values, want %d: %+v", len(vals), len(want), vals)
	}
	for i, w := range want {
		if math.Abs(vals[i].Num-w) > 1e-12 {
			t.Errorf("value %d: got %v, want %v", i, vals[i].Num, w)
		}
	}
}

// TestFastVariants: fast(...) attaches to the preceding axis or SET.
func TestFastVariants(t *testing.T) {
	prog, err := Parse("t.airql", `
SWEEP k=1..8:1 fast(1,2,4,8)
SET records=10000 fast(2500)
`)
	if err != nil {
		t.Fatal(err)
	}
	ax := prog.Axes[0]
	if len(ax.Values) != 8 || !ax.HasFast || len(ax.Fast) != 4 {
		t.Fatalf("axis k: %d full / %d fast values", len(ax.Values), len(ax.Fast))
	}
	set := prog.Sets[0]
	if set.FastExpr == nil {
		t.Fatal("SET fast(...) variant not recorded")
	}
	if set.FastExpr.Kind != ExprNum || set.FastExpr.Num != 2500 {
		t.Fatalf("SET fast expr: %+v", set.FastExpr)
	}
}

// TestByteUnits: byte-suffixed literals carry the multiplier and the
// unit flag.
func TestByteUnits(t *testing.T) {
	prog, err := Parse("t.airql", `SET switchcost=1KiB`)
	if err != nil {
		t.Fatal(err)
	}
	e := prog.Sets[0].Expr
	if e.Kind != ExprNum || e.Num != 1024 || !e.Bytes {
		t.Fatalf("1KiB parsed as %+v", e)
	}
}

// TestSelectorsAndQuotedTableIDs: metric selectors parse into Sel, and
// a quoted TABLE id admits characters outside the identifier set.
func TestSelectorsAndQuotedTableIDs(t *testing.T) {
	prog, err := Parse("t.airql", `
SWEEP k=1,2 switchcost=0,1024
SWEEP scheme=flat,sig
TABLE "multich-at" title("Access") x(k)
COL "flat sw0" mean(access){scheme=flat,switchcost=0}
`)
	if err != nil {
		t.Fatal(err)
	}
	tb := prog.Tables[0]
	if tb.ID != "multich-at" {
		t.Fatalf("table id %q", tb.ID)
	}
	sel := tb.Cols[0].Expr.Sel
	if len(sel) != 2 || sel[0].Key != "scheme" || sel[1].Key != "switchcost" {
		t.Fatalf("selector parsed wrong: %+v", sel)
	}
}

// TestComments: '#' comments are stage separators' friends — they never
// leak into tokens.
func TestComments(t *testing.T) {
	prog, err := Parse("t.airql", `
# a header comment
SWEEP records=1000,2000 # trailing comment
# another
SET scheme=flat
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Axes) != 1 || len(prog.Sets) != 1 {
		t.Fatalf("comments disturbed the parse: %+v", prog)
	}
}

// TestParseErrorsCarryPositions: syntax errors name file:line:col.
func TestParseErrorsCarryPositions(t *testing.T) {
	cases := []string{
		`SWEEP =1,2`,
		`SWEEP k=1..`,
		`TABLE`,
		`COL "a"`,
		`EMIT csv(results/x.csv`,
		`SWEEP k=1,2 fast(`,
		`BOGUS k=1`,
		"SWEEP k=\"unterminated",
	}
	for _, src := range cases {
		_, err := Parse("t.airql", src)
		if err == nil {
			t.Errorf("no error for %q", src)
			continue
		}
		e, ok := err.(*Error)
		if !ok {
			t.Errorf("error for %q is %T, want *Error", src, err)
			continue
		}
		if e.File != "t.airql" || e.Pos.Line < 1 || e.Pos.Col < 1 {
			t.Errorf("error for %q lacks a position: %v", src, e)
		}
		if !strings.Contains(e.Error(), "t.airql:") {
			t.Errorf("formatted error %q does not lead with the file", e.Error())
		}
	}
}
