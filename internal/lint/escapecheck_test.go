package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestParseEscapeOutput pins the filter: heap verdicts are kept (with
// trailing colons trimmed and exact duplicates — the build cache replays
// output — collapsed), while inlining chatter, "does not escape" lines
// and the indented -m -m explanation chains are dropped.
func TestParseEscapeOutput(t *testing.T) {
	out := strings.Join([]string{
		"# example.com/esc/hot",
		"./hot/hot.go:26:2: moved to heap: v",
		"./hot/hot.go:26:2: moved to heap: v",
		"hot/hot.go:27:9: &v escapes to heap:",
		"  flow: ~r0 = &v:",
		"hot/hot.go:13:10: xs does not escape",
		"hot/hot.go:25:6: can inline Leak",
		"not a diagnostic line",
	}, "\n")
	data := ParseEscapeOutput(out)
	if len(data.Diags) != 1 {
		t.Fatalf("got diags for %d files, want 1: %v", len(data.Diags), data.Diags)
	}
	got := data.Diags["hot/hot.go"]
	want := []EscapeDiag{
		{Line: 26, Col: 2, Msg: "moved to heap: v"},
		{Line: 27, Col: 9, Msg: "&v escapes to heap"},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d diagnostics %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("diagnostic %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestEscapeCheckAgainstFixture runs escapecheck over the escape fixture
// with hand-built compiler verdicts: the unsuppressed hotpath escape is
// the only finding (named function + compiler message), the suppressed
// one honors its allow directive, and the non-hotpath function's escape
// is ignored.
func TestEscapeCheckAgainstFixture(t *testing.T) {
	pkg, err := fixtureLoader.Load("internal/schemes/escape")
	if err != nil {
		t.Fatal(err)
	}
	data := &EscapeData{Diags: map[string][]EscapeDiag{
		"internal/schemes/escape/escape.go": {
			{Line: 26, Col: 2, Msg: "moved to heap: v"}, // Leak: finding
			{Line: 35, Col: 2, Msg: "moved to heap: w"}, // Sanctioned: allowed
			{Line: 41, Col: 2, Msg: "moved to heap: u"}, // Free: not hotpath
		},
	}}
	diags, err := Check([]*Package{pkg}, Options{Escapes: data})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "escapecheck" || d.Pos.Line != 26 {
		t.Errorf("finding at %s line %d by %s, want escapecheck at line 26", d.Pos.Filename, d.Pos.Line, d.Analyzer)
	}
	if !strings.Contains(d.Message, "Leak") || !strings.Contains(d.Message, "moved to heap: v") {
		t.Errorf("message %q should name the function and the compiler diagnostic", d.Message)
	}
}

// TestOnlyEscapeCheckNeedsData: selecting escapecheck explicitly without
// escape data is a contradiction, not a silent no-op.
func TestOnlyEscapeCheckNeedsData(t *testing.T) {
	pkg, err := fixtureLoader.Load("internal/schemes/escape")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Check([]*Package{pkg}, Options{Only: []string{"escapecheck"}})
	if err == nil {
		t.Fatal("escapecheck-only run without escape data should error")
	}
	if !strings.Contains(err.Error(), "-escape") {
		t.Errorf("error %q should point at the -escape flag", err)
	}
}

// TestRunEscapeBuildEndToEnd codifies the acceptance contract on a
// scratch module: introduce a heap escape in a hotpath function, run the
// real compiler, and the finding names the function and the compiler's
// diagnostic. This is `make lint-escape` in miniature.
func TestRunEscapeBuildEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go build")
	}
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module example.com/esc\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, "hot"), 0o755); err != nil {
		t.Fatal(err)
	}
	src := `package hot

//airlint:hotpath
func Leak() *int {
	v := 42
	return &v
}
`
	if err := os.WriteFile(filepath.Join(root, "hot", "hot.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	// A nested module (its own go.mod, like the benchmark) cannot be
	// built from the root; the escape build must skip it, not fail.
	if err := os.MkdirAll(filepath.Join(root, "sub", "pkg"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "sub", "go.mod"), []byte("module example.com/sub\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "sub", "pkg", "pkg.go"), []byte("package pkg\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := RunEscapeBuild(root, []string{"hot", "sub/pkg"})
	if err != nil {
		t.Fatal(err)
	}
	var moved bool
	for _, d := range data.Diags["hot/hot.go"] {
		if strings.Contains(d.Msg, "moved to heap: v") {
			moved = true
		}
	}
	if !moved {
		t.Fatalf("escape build did not report the heap move: %v", data.Diags)
	}
	loader := NewLoader(root, "example.com/esc")
	pkg, err := loader.Load("hot")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Check([]*Package{pkg}, Options{Only: []string{"escapecheck"}, Escapes: data})
	if err != nil {
		t.Fatal(err)
	}
	// Recent compilers report both "moved to heap: v" and "v escapes to
	// heap" for the same local; every finding must name the function.
	if len(diags) == 0 {
		t.Fatal("escapecheck reported nothing for a compiler-verified escape")
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "Leak") || !strings.Contains(d.Message, "heap") {
			t.Errorf("message %q should name Leak and the compiler verdict", d.Message)
		}
	}
	var named bool
	for _, d := range diags {
		if strings.Contains(d.Message, "moved to heap: v") {
			named = true
		}
	}
	if !named {
		t.Errorf("no finding carries the compiler's moved-to-heap diagnostic: %v", diags)
	}
}
