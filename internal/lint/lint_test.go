package lint

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureModule is the fake module rooted at testdata/src; its directory
// layout mirrors the real module so path-scoped rules (simulation
// packages, the sanctioned concurrency file) apply to fixtures exactly
// as they do to production code.
const fixtureModule = "example.com/airlintfix"

var fixtureLoader = NewLoader(mustAbs("testdata/src"), fixtureModule)

func mustAbs(p string) string {
	abs, err := filepath.Abs(p)
	if err != nil {
		panic(err)
	}
	return abs
}

// check lints one fixture package and returns each diagnostic as
// "file.go:line: analyzer".
func check(t *testing.T, rel string) []string {
	t.Helper()
	pkg, err := fixtureLoader.Load(rel)
	if err != nil {
		t.Fatalf("load %s: %v", rel, err)
	}
	var got []string
	for _, d := range Check(pkg) {
		got = append(got, fmt.Sprintf("%s:%d: %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Analyzer))
	}
	return got
}

func TestAnalyzers(t *testing.T) {
	cases := []struct {
		rel  string
		want []string
	}{
		// determinism: wall clock ×2, global rand, unsorted map range.
		{"internal/sim/bad", []string{
			"bad.go:11: determinism",
			"bad.go:15: determinism",
			"bad.go:19: determinism",
			"bad.go:24: determinism",
		}},
		// determinism negatives: seeded rand, duration arithmetic,
		// sorted map range, order-insensitive accumulation.
		{"internal/sim/good", nil},
		// floatcompare: == and != between floats in scope.
		{"internal/analytical/bad", []string{
			"bad.go:5: floatcompare",
			"bad.go:9: floatcompare",
		}},
		// floatcompare negatives: tolerance, int ==, ordered <.
		{"internal/analytical/good", nil},
		// out of scope for floatcompare and the map-order rule.
		{"other", nil},
		// confinement: WaitGroup decl, make(chan), go statement.
		{"internal/core/badgo", []string{
			"badgo.go:8: confinement",
			"badgo.go:9: confinement",
			"badgo.go:12: confinement",
		}},
		// confinement: a method-value goroutine is still a goroutine.
		{"internal/core/badmethodgo", []string{
			"badmethodgo.go:12: confinement",
		}},
		// the sanctioned concurrency files may use all of it.
		{"internal/airql", nil},
		{"internal/core", nil},
		// unitsafety: cross-unit conversions ×2, raw constant, unit×unit.
		{"internal/channel/badunits", []string{
			"badunits.go:12: unitsafety",
			"badunits.go:13: unitsafety",
			"badunits.go:19: unitsafety",
			"badunits.go:24: unitsafety",
		}},
		// unitsafety negatives: constructors, unit methods, conversions
		// out, untyped-constant arithmetic.
		{"internal/channel/goodunits", nil},
		// exhaustive: incomplete Kind switch, defaultless scheme dispatch.
		{"internal/core/badswitch", []string{
			"badswitch.go:12: exhaustive",
			"badswitch.go:23: exhaustive",
		}},
		// exhaustive negatives: full coverage, explicit defaults, plain
		// string switches.
		{"internal/core/goodswitch", nil},
		// exhaustive: the faults error-model enum is closed too.
		{"internal/faults/badswitch", []string{
			"badswitch.go:9: exhaustive",
		}},
		{"internal/faults/goodswitch", nil},
		// determinism scope covers the faults layer (simCritical).
		{"internal/faults/bad", []string{
			"bad.go:8: determinism",
		}},
		// exhaustive: the channel-allocation policy enum is closed too.
		{"internal/multichannel/badswitch", []string{
			"badswitch.go:9: exhaustive",
		}},
		{"internal/multichannel/goodswitch", nil},
		// determinism scope covers the channel-allocation layer.
		{"internal/multichannel/bad", []string{
			"bad.go:9: determinism",
		}},
		// exhaustive: the scenario compiler's token/stage enums are closed.
		{"internal/airql/badswitch", []string{
			"badswitch.go:9: exhaustive",
			"badswitch.go:20: exhaustive",
		}},
		{"internal/airql/goodswitch", nil},
		// determinism and rngdiscipline scope covers the scenario compiler.
		{"internal/airql/bad", []string{
			"bad.go:13: determinism",
			"bad.go:17: rngdiscipline",
		}},
		{"internal/airql/good", nil},
		// mergecomplete: a shard fold that drops exactly one counter.
		{"internal/core/badmerge", []string{
			"badmerge.go:20: mergecomplete",
		}},
		// mergecomplete negatives: +=, composite keys, Add-method fields.
		{"internal/core/goodmerge", nil},
		// mergecomplete: a pairwise Merge that never reads one field.
		{"internal/stats/badmerge", []string{
			"badmerge.go:13: mergecomplete",
		}},
		// mergecomplete negative: whole-value copy inside a traced helper.
		{"internal/stats/goodmerge", nil},
		// rngdiscipline: direct construction, computed label, empty label,
		// intra-package duplicate label.
		{"internal/faults/rngbad", []string{
			"rngbad.go:14: rngdiscipline",
			"rngbad.go:15: rngdiscipline",
			"rngbad.go:16: rngdiscipline",
			"rngbad.go:18: rngdiscipline",
		}},
		// rngdiscipline negatives: sanctioned constructors, distinct labels.
		{"internal/faults/rnggood", nil},
		// a cross-package duplicate label is invisible to a one-package
		// check; TestStreamSeedDuplicatesAcrossPackages batches it.
		{"internal/multichannel/rngdup", nil},
		// the fixture bucket codec itself sits outside byteclock's scope.
		{"internal/channel", nil},
		// byteclock: Encode outside the accessor, direct cache read,
		// Of with a non-parameter index.
		{"internal/airborne/bad", []string{
			"bad.go:25: byteclock",
			"bad.go:30: byteclock",
			"bad.go:35: byteclock",
		}},
		// byteclock negatives: accessor methods, parameter-indexed Of,
		// closures with their own parameter sets.
		{"internal/airborne/good", nil},
		// byteclock: Of dispatched through the Source interface obeys the
		// same index discipline as the concrete cache.
		{"internal/airborne/srcbad", []string{
			"srcbad.go:14: byteclock",
		}},
		{"internal/airborne/srcgood", nil},
		// exhaustive: the daemon's transport and chaos enums are closed too.
		{"internal/aircast/badswitch", []string{
			"badswitch.go:9: exhaustive",
			"badswitch.go:20: exhaustive",
		}},
		{"internal/aircast/goodswitch", nil},
		// the aircast sanctions: wall clock and concurrency are the
		// daemon's job, so neither determinism nor confinement fires.
		{"internal/aircast/daemon", nil},
		// ...but only the wall-clock ban is lifted: global randomness in
		// the daemon is still a determinism finding.
		{"internal/aircast/badrand", []string{
			"badrand.go:10: determinism",
		}},
		// hotalloc: every allocating construct in a marked walker (line 18
		// carries both the concatenation and the fmt call).
		{"internal/schemes/hotbad", []string{
			"hotbad.go:12: hotalloc",
			"hotbad.go:13: hotalloc",
			"hotbad.go:14: hotalloc",
			"hotbad.go:15: hotalloc",
			"hotbad.go:16: hotalloc",
			"hotbad.go:17: hotalloc",
			"hotbad.go:18: hotalloc",
			"hotbad.go:18: hotalloc",
			"hotbad.go:19: hotalloc",
		}},
		// hotalloc negatives: allocation-free marked walker, unmarked
		// builder allocating freely.
		{"internal/schemes/hotgood", nil},
		// a hotpath marker outside a function doc comment is an error.
		{"directives/hotorphan", []string{
			"hotorphan.go:6: directive",
		}},
		// an unknown directive verb is an error.
		{"directives/badverb", []string{
			"badverb.go:4: directive",
		}},
		// hotpath stacks with allow: the used allow silences hotalloc, the
		// stale one is flagged.
		{"directives/hotstacked", []string{
			"hotstacked.go:17: directive",
		}},
		// working suppressions: trailing and preceding-line directives.
		{"directives/ok", nil},
		// a stack of standalone directives covers one line for several
		// analyzers at once.
		{"directives/stacked", nil},
		// generated files: findings and directives are both ignored.
		{"directives/generated", nil},
		// unknown analyzer name: directive error, finding stays.
		{"directives/unknown", []string{
			"unknown.go:7: determinism",
			"unknown.go:7: directive",
		}},
		// suppression matching nothing is an error.
		{"directives/unused", []string{
			"unused.go:4: directive",
		}},
		// suppression without a reason: error, finding stays.
		{"directives/noreason", []string{
			"noreason.go:7: determinism",
			"noreason.go:7: directive",
		}},
		// maporder: map-iteration-ordered keys reach a CSV writer, an
		// fmt sink and a core.Result field without a sort in between.
		{"cmd/airql/mapbad", []string{
			"mapbad.go:24: maporder",
			"mapbad.go:34: maporder",
			"mapbad.go:43: maporder",
			"mapbad.go:54: maporder",
		}},
		// maporder negatives: sort kills the taint on every path, and
		// len() of a tainted slice is order-free.
		{"cmd/airql/mapgood", nil},
		// seedtaint: a wall-clock seed in the argument list of each
		// sanctioned constructor. determinism co-reports the reads.
		{"internal/faults/seedclock", []string{
			"seedclock.go:14: seedtaint",
			"seedclock.go:14: determinism",
			"seedclock.go:15: seedtaint",
			"seedclock.go:15: determinism",
			"seedclock.go:16: seedtaint",
			"seedclock.go:16: determinism",
		}},
		// seedtaint negatives: seed laundered through struct fields and
		// a same-package helper still traces back to the seed plane.
		{"internal/core/seedgood", nil},
		// seedtaint: wall clock laundered through a struct field, a
		// seed with no plane ancestry, a non-seed-named parameter, and
		// a wall-clock write into the plane. determinism co-reports the
		// raw time.Now reads (internal/core is in its scope).
		{"internal/core/seedbad", []string{
			"seedbad.go:17: determinism",
			"seedbad.go:19: seedtaint",
			"seedbad.go:25: seedtaint",
			"seedbad.go:31: seedtaint",
			"seedbad.go:36: seedtaint",
			"seedbad.go:36: determinism",
		}},
		// escapecheck is inactive without compiler escape data: the
		// escaping hotpaths and their allow directive both stay quiet.
		{"internal/schemes/escape", nil},
	}
	for _, tc := range cases {
		t.Run(tc.rel, func(t *testing.T) {
			got := check(t, tc.rel)
			if len(got) != len(tc.want) {
				t.Fatalf("got %d diagnostics %v, want %d %v", len(got), got, len(tc.want), tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("diagnostic %d: got %q, want %q", i, got[i], tc.want[i])
				}
			}
		})
	}
}

func TestDiagnosticMessages(t *testing.T) {
	pkg, err := fixtureLoader.Load("internal/sim/bad")
	if err != nil {
		t.Fatal(err)
	}
	diags := Check(pkg)
	wantSubstrings := []string{"replayable from their seed", "replayable", "sim.RNG", "map iteration order"}
	if len(diags) != len(wantSubstrings) {
		t.Fatalf("got %d diagnostics, want %d: %v", len(diags), len(wantSubstrings), diags)
	}
	for i, want := range wantSubstrings {
		if !strings.Contains(diags[i].Message, want) {
			t.Errorf("diagnostic %d message %q does not mention %q", i, diags[i].Message, want)
		}
	}
	// String form is file:line:col: [analyzer] message.
	if s := diags[0].String(); !strings.Contains(s, "bad.go:11:") || !strings.Contains(s, "[determinism]") {
		t.Errorf("diagnostic string %q missing position or analyzer tag", s)
	}
}

func TestUnknownDirectiveListsKnownAnalyzers(t *testing.T) {
	pkg, err := fixtureLoader.Load("directives/unknown")
	if err != nil {
		t.Fatal(err)
	}
	var dirDiag *Diagnostic
	for _, d := range Check(pkg) {
		if d.Analyzer == "directive" {
			dirDiag = &d
			break
		}
	}
	if dirDiag == nil {
		t.Fatal("no directive diagnostic reported")
	}
	for _, name := range []string{"determinism", "floatcompare", "confinement", "unitsafety", "exhaustive", "mergecomplete", "rngdiscipline", "byteclock", "hotalloc"} {
		if !strings.Contains(dirDiag.Message, name) {
			t.Errorf("unknown-directive message %q does not list analyzer %q", dirDiag.Message, name)
		}
	}
}

// TestMergeCompleteNamesField pins the acceptance contract: deleting one
// counter's merge line must produce a finding that names that counter.
func TestMergeCompleteNamesField(t *testing.T) {
	pkg, err := fixtureLoader.Load("internal/core/badmerge")
	if err != nil {
		t.Fatal(err)
	}
	diags := Check(pkg)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "Switches") {
		t.Errorf("mergecomplete message %q does not name the dropped field Switches", diags[0].Message)
	}
}

// TestStreamSeedDuplicatesAcrossPackages batches two packages whose
// StreamSeed labels collide; neither is flagged alone.
func TestStreamSeedDuplicatesAcrossPackages(t *testing.T) {
	good, err := fixtureLoader.Load("internal/faults/rnggood")
	if err != nil {
		t.Fatal(err)
	}
	dup, err := fixtureLoader.Load("internal/multichannel/rngdup")
	if err != nil {
		t.Fatal(err)
	}
	diags := CheckAll([]*Package{good, dup})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "rngdiscipline" || filepath.Base(d.Pos.Filename) != "rngdup.go" {
		t.Errorf("duplicate label reported as %v, want rngdiscipline in rngdup.go", d)
	}
	if !strings.Contains(d.Message, `"faults"`) || !strings.Contains(d.Message, "rnggood.go") {
		t.Errorf("duplicate-label message %q should name the label and the first site", d.Message)
	}
}

// TestCheckOnlySubset runs a single analyzer and verifies other
// analyzers' findings and their allows both go quiet.
func TestCheckOnlySubset(t *testing.T) {
	pkg, err := fixtureLoader.Load("internal/schemes/hotbad")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := CheckOnly([]*Package{pkg}, []string{"determinism"})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("determinism-only run of hotbad reported %v, want none", diags)
	}
	diags, err = CheckOnly([]*Package{pkg}, []string{"hotalloc"})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 9 {
		t.Errorf("hotalloc-only run of hotbad reported %d findings, want 9: %v", len(diags), diags)
	}
}

// TestCheckOnlyUnknownName rejects misspelled analyzer selections.
func TestCheckOnlyUnknownName(t *testing.T) {
	pkg, err := fixtureLoader.Load("other")
	if err != nil {
		t.Fatal(err)
	}
	_, err = CheckOnly([]*Package{pkg}, []string{"hotallocs"})
	if err == nil {
		t.Fatal("CheckOnly accepted an unknown analyzer name")
	}
	if !strings.Contains(err.Error(), "hotallocs") || !strings.Contains(err.Error(), "hotalloc") {
		t.Errorf("error %q should name the bad selection and list known analyzers", err)
	}
}

func TestExpandWalksFixtureTree(t *testing.T) {
	got, err := fixtureLoader.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"directives/noreason", "internal/sim/bad", "other"}
	for _, w := range want {
		found := false
		for _, g := range got {
			if g == w {
				found = true
			}
		}
		if !found {
			t.Errorf("Expand missing package %q; got %v", w, got)
		}
	}
}
