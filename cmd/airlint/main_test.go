package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRunCleanFixture(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"./cmd/airlint/testdata/clean"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("clean fixture: exit %d, output:\n%s", code, out.String())
	}
	if out.Len() != 0 {
		t.Fatalf("clean fixture should print nothing, got:\n%s", out.String())
	}
}

func TestRunDirtyFixture(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"./cmd/airlint/testdata/dirty"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("dirty fixture: exit %d, want 1; output:\n%s", code, out.String())
	}
	for _, want := range []string{"dirty.go:", "[determinism]", "[confinement]", "time.Now", "go statement", "channel construction"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("dirty fixture output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunListsAnalyzers(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"-list"}, &out)
	if err != nil || code != 0 {
		t.Fatalf("-list: code %d err %v", code, err)
	}
	for _, want := range []string{"determinism", "floatcompare", "confinement", "unitsafety", "exhaustive", "mergecomplete", "byteclock", "hotalloc", "maporder", "seedtaint", "escapecheck", "directive", "hotpath"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("-list output missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "rngdiscipline") {
		t.Fatalf("-list output still names the retired rngdiscipline analyzer:\n%s", out.String())
	}
}

// TestRunEscapeCleanFixture drives the full -escape path: a real
// `go build -gcflags='-m -m'` over the fixture package, escape data
// attached, no hotpath functions there, so nothing to report.
func TestRunEscapeCleanFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go build")
	}
	var out bytes.Buffer
	code, err := run([]string{"-escape", "./cmd/airlint/testdata/clean"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("clean fixture under -escape: exit %d, output:\n%s", code, out.String())
	}
}

// TestRunOnlyEscapeCheckImpliesBuild: naming escapecheck in -only turns
// the escape build on instead of erroring out for missing data.
func TestRunOnlyEscapeCheckImpliesBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go build")
	}
	var out bytes.Buffer
	code, err := run([]string{"-only", "escapecheck", "./cmd/airlint/testdata/clean"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("-only escapecheck on clean fixture: exit %d, output:\n%s", code, out.String())
	}
}

func TestRunOnlySubset(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"-only", "determinism", "./cmd/airlint/testdata/dirty"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("-only determinism on dirty fixture: exit %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "[determinism]") {
		t.Fatalf("-only determinism output missing its findings:\n%s", out.String())
	}
	if strings.Contains(out.String(), "[confinement]") {
		t.Fatalf("-only determinism must drop other analyzers' findings:\n%s", out.String())
	}
}

func TestRunOnlyUnknownName(t *testing.T) {
	var out bytes.Buffer
	if _, err := run([]string{"-only", "nosuchanalyzer", "./cmd/airlint/testdata/dirty"}, &out); err == nil {
		t.Fatal("unknown -only analyzer accepted")
	}
}

func TestRunJSONDirtyFixture(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"-json", "./cmd/airlint/testdata/dirty"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("dirty fixture: exit %d, want 1; output:\n%s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) == 0 {
		t.Fatal("-json printed no findings")
	}
	seen := make(map[string]bool)
	for _, line := range lines {
		var f struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("line %q is not a JSON object: %v", line, err)
		}
		if !strings.HasSuffix(f.File, "dirty.go") || f.Line <= 0 || f.Col <= 0 || f.Analyzer == "" || f.Message == "" {
			t.Fatalf("incomplete finding %+v", f)
		}
		seen[f.Analyzer] = true
	}
	if !seen["determinism"] || !seen["confinement"] {
		t.Fatalf("-json findings missing expected analyzers: %v", seen)
	}
	if strings.Contains(out.String(), "finding(s)") {
		t.Fatalf("-json output should not carry the text summary:\n%s", out.String())
	}
}

func TestRunJSONCleanFixture(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"-json", "./cmd/airlint/testdata/clean"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 || out.Len() != 0 {
		t.Fatalf("clean fixture under -json: exit %d, output:\n%s", code, out.String())
	}
}

func TestRunRejectsMissingDir(t *testing.T) {
	var out bytes.Buffer
	if _, err := run([]string{"./no/such/dir"}, &out); err == nil {
		t.Fatal("missing directory accepted")
	}
}
