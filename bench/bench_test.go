package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/airindex/airindex/internal/airql"
	"github.com/airindex/airindex/scenarios"
)

// tinyFig4Root writes the tiny fig4 sweep's CSVs, made at the default
// seed, under a fresh root, where the workload expects results/.
func tinyFig4Root(t *testing.T) string {
	t.Helper()
	src, err := scenarios.Source("fig4.airql")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := airql.Compile("fig4.airql", tinyFig4(src))
	if err != nil {
		t.Fatal(err)
	}
	tables, err := airql.Execute(prog, airql.Options{Fast: true, Seed: defaultSeed})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	if err := airql.Emit(prog, tables, root, io.Discard); err != nil {
		t.Fatal(err)
	}
	return root
}

func tinyWorkload(t *testing.T, name string, seed int64, root string) workload {
	t.Helper()
	w, err := newWorkload(name, seed, true, root, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func metricNames(m map[string]metric) []string {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestWorkloadsTiny drives every workload at a tiny size, untraced and
// traced, and checks that each passes its own output checks and reports
// exactly the metrics BENCHMARK.json names.
func TestWorkloadsTiny(t *testing.T) {
	e2e, layers := benchmarkMetrics(t)
	fig4Root := tinyFig4Root(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, tr, err := drive(tinyWorkload(t, name, defaultSeed, fig4Root), 0.05, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: %d of %d checks failed", traced, res.Failed, res.Attempted)
				}
				want := e2e
				if traced {
					want = layers
					if tr == nil || len(tr.spans) == 0 {
						t.Fatal("traced run recorded no spans")
					}
				}
				if got := metricNames(res.Metrics); strings.Join(got, " ") != strings.Join(want, " ") {
					t.Fatalf("traced=%v: metrics %v, BENCHMARK.json names %v", traced, got, want)
				}
			}
		})
	}
}

// benchmarkMetrics reads the end-to-end and per-layer metric names from
// BENCHMARK.json, sorted.
func benchmarkMetrics(t *testing.T) (e2e, layers []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	sort.Strings(e2e)
	sort.Strings(layers)
	return e2e, layers
}

// TestFig4TamperedExpectationFails changes one committed row; exactly
// that row must count as failed.
func TestFig4TamperedExpectationFails(t *testing.T) {
	root := tinyFig4Root(t)
	path := filepath.Join(root, "results", "fig4a.csv")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rows := lines(data)
	cells := strings.Split(rows[1], ",")
	cells[2] += "1" // flat (A): one more digit
	rows[1] = strings.Join(cells, ",")
	if err := os.WriteFile(path, []byte(strings.Join(rows, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, _, err := drive(tinyWorkload(t, "fig4-paper", defaultSeed, root), 0.01, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Fatalf("tampered row: correct=%v failed=%d, want one failed row", res.Correct, res.Failed)
	}
}

// TestCompareCSV pins the row rules: byte equality at the reference
// seed; elsewhere exact x and (A) cells and (S) cells within 10%.
func TestCompareCSV(t *testing.T) {
	want := []string{"records,a (S),a (A)", "100,1000,7", "200,2000,8"}
	for _, c := range []struct {
		got    []string
		exact  bool
		failed int64
	}{
		{want, true, 0},
		{[]string{want[0], "100,1000.0,7", want[2]}, true, 1},
		{[]string{want[0], "100,1090,7", "200,1810,8"}, false, 0},
		{[]string{want[0], "100,1110,7", "200,2000,8.0"}, false, 2},
		{[]string{want[0], "101,1000,7"}, false, 2},
		{[]string{"records,b (S),a (A)", "100,1000,7", "200,2000,8"}, false, 2},
	} {
		if got := compareCSV(c.got, want, c.exact); got.attempted != 2 || got.failed != c.failed {
			t.Errorf("compareCSV(%q, exact=%v) = %+v, want 2 attempted, %d failed", c.got, c.exact, got, c.failed)
		}
	}
}

// TestLiveTamperedPredictionFails changes one clean request's measured
// tuning time; the prediction check must catch exactly that key.
func TestLiveTamperedPredictionFails(t *testing.T) {
	l := newLive(defaultSeed, true)
	if err := l.setup(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.pass(nil); err != nil {
		t.Fatal(err)
	}
	tampered := false
	outs := l.outs[0][1]
	for i := range outs {
		if outs[i].res.Restarts == 0 && outs[i].res.EpochRestarts == 0 {
			outs[i].res.Tuning++
			tampered = true
			break
		}
	}
	if !tampered {
		t.Fatal("no clean request to tamper with")
	}
	l.verify()
	if got := l.tally(); got.failed != 1 || got.attempted == 0 {
		t.Fatalf("tampered prediction: %+v, want exactly one failure", got)
	}
}

// TestCohortTamperedResultFails changes one job's result; every request
// of that scheme must count as failed.
func TestCohortTamperedResultFails(t *testing.T) {
	c := newCohortClean(defaultSeed, true)
	if err := c.setup(); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		if _, _, err := c.pass(nil); err != nil {
			t.Fatal(err)
		}
		if pass == 1 {
			c.last[1].Found++
		}
		c.verify()
	}
	got := c.tally()
	if want := 2 * int64(c.cfgs[1].MaxRequests); got.failed != want {
		t.Fatalf("tampered job: %+v, want %d failed requests", got, want)
	}
}

// TestSelfTimes checks self-time arithmetic on nested, overlapping and
// folded spans.
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60}, // overlaps span 2
		{ID: 4, Parent: 2, Start: 15, End: 20},
		{ID: 5, Parent: 3, Start: 30, End: 80, Folded: true}, // clipped to its parent
		{ID: 6, Start: 200, End: 250},
	}
	got := selfTimes(spans)
	want := []int64{50, 25, 0, 5, 50, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("self times %v, want %v", got, want)
		}
	}
}
