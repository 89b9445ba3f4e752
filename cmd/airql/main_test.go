package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCSV runs airql with -out into a fresh directory and returns the
// bytes of one emitted CSV.
func runCSV(t *testing.T, csv string, args ...string) []byte {
	t.Helper()
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(append([]string{"-fast", "-quiet", "-out", dir}, args...), &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "results", csv))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRunWritesCSV: -out roots every EMIT csv(...) sink, one file per
// TABLE under its ID.
func TestRunWritesCSV(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-fast", "-quiet", "-out", dir, "fig4"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, csv := range []string{"fig4a.csv", "fig4b.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, "results", csv))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), "records,") || strings.Count(string(data), "\n") != 5 {
			t.Fatalf("%s is not the 4-row fast fig4 table:\n%s", csv, data)
		}
	}
}

// TestRunShardsDeterministic: the -shards flag is accepted and two
// identical sharded invocations emit identical bytes.
func TestRunShardsDeterministic(t *testing.T) {
	args := []string{"-shards", "2", "fig4"}
	a, b := runCSV(t, "fig4a.csv", args...), runCSV(t, "fig4a.csv", args...)
	if !bytes.Equal(a, b) {
		t.Fatalf("sharded runs differ:\n%s\nvs\n%s", a, b)
	}
}

// TestRunZeroRateFaultsIdenticalOutput is the CLI-level differential
// check mirrored by CI: a zero-rate fault model must not change a single
// byte of an existing figure's CSV.
func TestRunZeroRateFaultsIdenticalOutput(t *testing.T) {
	base := runCSV(t, "fig4a.csv", "fig4")
	zero := runCSV(t, "fig4a.csv", "-set", "fault.model=drop", "-set", "fault.rate=0", "fig4")
	if !bytes.Equal(base, zero) {
		t.Fatalf("zero-rate faults changed fig4a.csv:\n%s\nvs\n%s", base, zero)
	}
}

// TestRunFaultsExperiment: the faults family runs end to end from the
// CLI and prints its three tables.
func TestRunFaultsExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fast", "-quiet", "-out", t.TempDir(), "-print", "text", "faults"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Access time vs. bucket error rate", "Tuning time vs. bucket error rate", "Recovery cost"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("faults output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunOneChannelIdenticalOutput is the CLI-level K=1 differential
// check mirrored by CI: a one-channel replicated allocation with zero
// switch cost must not change a single byte of an existing figure's CSV.
func TestRunOneChannelIdenticalOutput(t *testing.T) {
	base := runCSV(t, "fig5a.csv", "fig5")
	one := runCSV(t, "fig5a.csv", "-set", "multi.channels=1", "-set", "multi.policy=replicated", "fig5")
	if !bytes.Equal(base, one) {
		t.Fatalf("K=1 allocation changed fig5a.csv:\n%s\nvs\n%s", base, one)
	}
}

// TestRunMultichExperiment: the multich family runs end to end from the
// CLI and prints both tables.
func TestRunMultichExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the multich sweep")
	}
	var out bytes.Buffer
	if err := run([]string{"-fast", "-quiet", "-out", t.TempDir(), "-print", "text", "multich"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Access time vs. number of broadcast channels", "Tuning time vs. number of broadcast channels"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("multich output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunRejectsBadChannelFlags: unknown allocation names and invalid
// channel counts are refused, with the -set flag's position, before any
// script runs.
func TestRunRejectsBadChannelFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-set", "multi.channels=2", "-set", "multi.policy=bogus"},
			`-set:2:14: knob multi.policy: unknown value "bogus"`},
		{[]string{"-set", "multi.channels=-3"},
			"-set:1:16: multichannel: channels -3 must be non-negative (0 disables)"},
	} {
		var out bytes.Buffer
		err := run(append(append([]string{"-fast"}, c.args...), "fig4"), &out)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: got %v, want an error containing %q", c.args, err, c.want)
		}
	}
}

// TestRunRejectsBadFaultFlags: a malformed -set is rejected with its
// position, through the same checks as a script's SET.
func TestRunRejectsBadFaultFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-set", "fault.model=bogus"}, `-set:1:13: knob fault.model: unknown value "bogus"`},
		{[]string{"-set", "fault.model=drop", "-set", "fault.rate=1.5"}, "-set:2:12: faults: error rate 1.5 outside [0,1)"},
		{[]string{"-set", "fault.rate=0/0"}, "-set:1:13: knob fault.rate: value NaN is not a finite number"},
		{[]string{"-set", "fault.rate"}, "-set:1:11: expected '=' in -set fault.rate"},
		{[]string{"-set", "fault.rate=0.1 multi.channels=2"}, "-set:1:16: unexpected identifier after -set fault.rate=..."},
		{[]string{"-set", "fault.retries=3"}, "-set:1:1: knob fault.retries needs fault.model (other than none) or fault.rate"},
		{[]string{"-set", "records=100"}, "-set:1:1: knob records is chosen per run, not by -set"},
		{[]string{"-set", "fualt.rate=0.1"}, `-set:1:1: unknown knob "fualt.rate"`},
	} {
		var out bytes.Buffer
		err := run(append(append([]string{"-fast"}, c.args...), "fig4"), &out)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: got %v, want an error containing %q", c.args, err, c.want)
		}
	}
}

// TestCheckReportsInvalidPoint: -check runs every point through the
// simulator's config validation, so a script that would fail at run time
// fails the check at the SET that made its points invalid, with the
// validator's message and its package prefix once; running it fails the
// same way before any point runs.
func TestCheckReportsInvalidPoint(t *testing.T) {
	file := filepath.Join(t.TempDir(), "serial.airql")
	src := "SWEEP records=1000,2000\nSET scheme=flat availability=0.5 fault.rate=0.01\nTABLE t x(records)\nCOL \"a\" mean(access)\n"
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	want := file + `:2:45: core: scheme "flat" is serial`
	var out bytes.Buffer
	if err := run([]string{"-check", file}, &out); err == nil || !strings.HasPrefix(out.String(), want) || strings.Count(out.String(), "core:") != 1 {
		t.Errorf("-check: got %v with output %q, want a failure printing %q... with one core: prefix", err, out.String(), want)
	}
	out.Reset()
	if err := run([]string{"-fast", "-quiet", file}, &out); err == nil || !strings.HasPrefix(err.Error(), want) || strings.Count(err.Error(), "core:") != 1 {
		t.Errorf("run: got %v, want an error starting %q with one core: prefix", err, want)
	}
}

func TestRunRequiresExperiments(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fast"}, &out); err == nil {
		t.Fatal("no scripts accepted")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-fast", "bogus"}, &out)
	if err == nil || !strings.Contains(err.Error(), "not a file and not an embedded scenario") {
		t.Fatalf("unknown script: got %v", err)
	}
}

// TestRunPrintMarkdown: -print md renders every table as markdown on
// stdout, alongside the EMIT sinks.
func TestRunPrintMarkdown(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-fast", "-quiet", "-out", dir, "-print", "md", "ablate-m"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "**ablate-m — ") || !strings.Contains(out.String(), "|---|") {
		t.Fatalf("markdown output missing:\n%s", out.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "results", "ablate-m.csv")); err != nil {
		t.Fatalf("-print suppressed the EMIT sink: %v", err)
	}
}

// TestRunPrintPlot: -print plot renders every table as an ASCII chart;
// an unknown form is refused.
func TestRunPrintPlot(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fast", "-quiet", "-out", t.TempDir(), "-print", "plot", "ablate-m"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "* ") || !strings.Contains(out.String(), "|") {
		t.Fatalf("plot output missing:\n%s", out.String())
	}
	if err := run([]string{"-print", "html", "fig4"}, &out); err == nil {
		t.Fatal("unknown -print form accepted")
	}
}
