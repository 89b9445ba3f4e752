package main

import (
	"fmt"
	"strings"
	"testing"
)

var testBench = benchmark{
	Workloads: []struct{ Name string }{{Name: "w"}},
	EndToEnd: []metric{
		{Name: "run_s", Better: "lower", Bound: 0.25},
		{Name: "req_per_s", Better: "higher", Bound: 0.25},
	},
}

// canned is bench/run.sh's output for one run: the context line and the
// result line.
func canned(correct bool, failed int, runS, reqPerS float64) string {
	return fmt.Sprintf("{\"workload\":\"w\",\"seed\":42}\n"+
		"{\"correct\":%t,\"attempted\":100,\"failed\":%d,\"metrics\":{"+
		"\"run_s\":{\"value\":%g,\"unit\":\"s\"},\"req_per_s\":{\"value\":%g,\"unit\":\"req/s\"}}}\n",
		correct, failed, runS, reqPerS)
}

// runs parses one canned output per run of workload w, and gives script
// s.airql the same run_s.
func runs(t *testing.T, outs ...string) map[string][]result {
	t.Helper()
	m := map[string][]result{}
	for _, out := range outs {
		_, r, err := parseRun(out)
		if err != nil {
			t.Fatal(err)
		}
		m["w"] = append(m["w"], r)
		m["s.airql"] = append(m["s.airql"], result{Correct: true, Metrics: map[string]struct{ Value float64 }{"run_s": r.Metrics["run_s"]}})
	}
	return m
}

// steady is ten correct runs at run_s = runS and req_per_s = reqPerS,
// each moved by up to 2%.
func steady(t *testing.T, runS, reqPerS float64) map[string][]result {
	var outs []string
	for i := 0; i < 10; i++ {
		f := 1 + float64(i%5-2)/100
		outs = append(outs, canned(true, 0, runS*f, reqPerS*f))
	}
	return runs(t, outs...)
}

func judgeCanned(base, change map[string][]result, identical bool) []entry {
	return summarize(testBench, []string{"s.airql"}, [2]map[string][]result{base, change}, map[string]bool{"s.airql": identical})
}

func TestVerdicts(t *testing.T) {
	// Base run_s 0.6, 0.7, ..., 1.5: interquartile range 0.45 over a
	// median of 1.05.
	var spread []string
	for i := 0; i < 10; i++ {
		spread = append(spread, canned(true, 0, 0.6+0.1*float64(i), 100))
	}
	for _, tc := range []struct {
		name         string
		base, change map[string][]result
		want         string
	}{
		{"same", steady(t, 1, 100), steady(t, 1, 100), "ok ok ok"},
		{"lower-better past the bound", steady(t, 1, 100), steady(t, 1.3, 100), "worse ok worse"},
		{"lower-better within the bound", steady(t, 1, 100), steady(t, 1.2, 100), "ok ok ok"},
		{"higher-better past the bound", steady(t, 1, 100), steady(t, 1, 70), "ok worse ok"},
		{"higher-better gain", steady(t, 1, 100), steady(t, 1, 200), "ok ok ok"},
		{"base spread above the bound", runs(t, spread...), runs(t, spread...), "unresolved ok unresolved"},
		{"every change run beats every base run", runs(t, spread...), steady(t, 0.5, 100), "ok ok ok"},
		{"worse outranks unresolved", runs(t, spread...), steady(t, 1.5, 100), "worse ok worse"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			entries := judgeCanned(tc.base, tc.change, true)
			var got []string
			for _, e := range entries {
				for _, r := range e.Metrics {
					got = append(got, r.Verdict)
				}
			}
			if strings.Join(got, " ") != tc.want {
				t.Fatalf("verdicts (run_s, req_per_s, script) %q, want %q", got, tc.want)
			}
			if f := failures(entries); (len(f) > 0) != strings.Contains(tc.want, "worse") {
				t.Fatalf("failures %q for verdicts %q", f, got)
			}
		})
	}
}

func TestFailedOpsAndIncorrectRunsFail(t *testing.T) {
	ten := func(correct bool, failed int) map[string][]result {
		var outs []string
		for i := 0; i < 10; i++ {
			outs = append(outs, canned(correct, failed, 1, 100))
		}
		return runs(t, outs...)
	}
	for _, tc := range []struct {
		name         string
		base, change map[string][]result
		want         string
	}{
		{"failed operations rise", ten(true, 0), ten(true, 1), "w: failed operations rose from 0 to 10"},
		{"change prints correct:false", ten(true, 0), ten(false, 0), "w: a run printed correct:false (base true, change false)"},
		{"base prints correct:false", ten(false, 0), ten(true, 0), "w: a run printed correct:false (base false, change true)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if f := failures(judgeCanned(tc.base, tc.change, true)); len(f) != 1 || f[0] != tc.want {
				t.Fatalf("failures %q, want [%q]", f, tc.want)
			}
		})
	}
	if f := failures(judgeCanned(ten(true, 2), ten(true, 1), true)); len(f) != 0 {
		t.Fatalf("fewer failed operations fail the gate: %q", f)
	}
}

// TestCSVMismatchRecordedNotFailed: a script whose CSVs differ is marked
// in the ledger, and the gate still passes.
func TestCSVMismatchRecordedNotFailed(t *testing.T) {
	entries := judgeCanned(steady(t, 1, 100), steady(t, 1, 100), false)
	if s := entries[1]; s.Name != "s.airql" || s.CSVIdentical == nil || *s.CSVIdentical {
		t.Fatalf("CSV mismatch not recorded: %+v", s)
	}
	if entries[0].CSVIdentical != nil {
		t.Fatal("a workload carries a CSV verdict")
	}
	if f := failures(entries); len(f) != 0 {
		t.Fatalf("CSV mismatch fails the gate: %q", f)
	}
}

func TestParseRunRejectsTruncatedOutput(t *testing.T) {
	for _, out := range []string{"", "{\"correct\":true}\n", "not json\n{\"correct\":true}\n", "{}\n{\"correct\":"} {
		if _, _, err := parseRun(out); err == nil {
			t.Errorf("parseRun(%q) accepted", out)
		}
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {1, 4}} {
		if got := quantile(v, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"-base", "HEAD"}, {"-out", "x.json"}, {"-base", "HEAD", "-out", "x.json", "extra"}, {"-pairs", "3"}} {
		if err := run(args); err == nil {
			t.Errorf("run(%q) accepted", args)
		}
	}
}
