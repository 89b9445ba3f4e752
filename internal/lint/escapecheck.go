package lint

import (
	"fmt"
	"go/ast"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// EscapeCheckAnalyzer cross-checks every `//airlint:hotpath` function
// against the compiler's actual escape-analysis decisions. hotalloc
// rejects allocation *syntax*; the compiler is the ground truth on what
// really reaches the heap (interface boxing the AST cannot see, locals
// that outlive the frame, closures the inliner failed to stack-allocate).
//
// The analyzer itself is pure: it consumes EscapeData parsed from
// `go build -gcflags='-m -m'` output (see RunEscapeBuild) and reports
// every "escapes to heap"/"moved to heap" diagnostic whose position
// falls inside a hotpath function's span. It only runs when escape data
// is attached to the check (cmd/airlint's -escape switch, or -only
// escapecheck which implies it); in a plain run it is skipped entirely,
// so its suppressions are neither applied nor reported stale.
var EscapeCheckAnalyzer = &Analyzer{
	Name: "escapecheck",
	Doc:  "//airlint:hotpath functions must be free of compiler-verified heap escapes (go build -gcflags='-m -m')",
	Run:  runEscapeCheck,
}

// EscapeDiag is one compiler escape diagnostic, positioned within a
// module-relative file.
type EscapeDiag struct {
	Line, Col int
	Msg       string
}

// EscapeData carries the compiler's escape diagnostics for one build,
// keyed by module-relative file path (forward slashes).
type EscapeData struct {
	Diags map[string][]EscapeDiag
}

// escapeLineRx matches one `file:line:col: message` diagnostic line as
// printed by the gc compiler under -m. Indented lines (the -m -m
// explanation chains) deliberately do not match.
var escapeLineRx = regexp.MustCompile(`^([^\s:][^:]*):(\d+):(\d+): (.+)$`)

// ParseEscapeOutput extracts the heap-relevant diagnostics from the
// combined output of `go build -gcflags='-m -m' ...` run at the module
// root. Only "escapes to heap" and "moved to heap" lines are kept;
// "does not escape" and inlining chatter are dropped.
func ParseEscapeOutput(out string) *EscapeData {
	data := &EscapeData{Diags: make(map[string][]EscapeDiag)}
	seen := make(map[string]bool)
	for _, line := range strings.Split(out, "\n") {
		m := escapeLineRx.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		msg := strings.TrimSuffix(m[4], ":")
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		if strings.Contains(msg, "does not escape") {
			continue
		}
		file := filepath.ToSlash(strings.TrimPrefix(m[1], "./"))
		var l, c int
		fmt.Sscanf(m[2], "%d", &l)
		fmt.Sscanf(m[3], "%d", &c)
		key := fmt.Sprintf("%s:%d:%d:%s", file, l, c, msg)
		if seen[key] {
			continue
		}
		seen[key] = true
		data.Diags[file] = append(data.Diags[file], EscapeDiag{Line: l, Col: c, Msg: msg})
	}
	for _, ds := range data.Diags {
		sort.Slice(ds, func(i, j int) bool {
			if ds[i].Line != ds[j].Line {
				return ds[i].Line < ds[j].Line
			}
			if ds[i].Col != ds[j].Col {
				return ds[i].Col < ds[j].Col
			}
			return ds[i].Msg < ds[j].Msg
		})
	}
	return data
}

// RunEscapeBuild compiles the given module-relative package directories
// with `go build -gcflags='-m -m'` from moduleRoot and parses the escape
// diagnostics. The Go build cache replays compiler output for unchanged
// packages, so repeat runs are cheap. The binary output of any main
// package is discarded into a temporary directory.
func RunEscapeBuild(moduleRoot string, rels []string) (*EscapeData, error) {
	if len(rels) == 0 {
		return &EscapeData{Diags: map[string][]EscapeDiag{}}, nil
	}
	tmp, err := os.MkdirTemp("", "airlint-escape-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	// -o diverts main-package binaries into the scratch directory instead
	// of littering the module root; a selection with no main packages
	// makes `go build -o` itself error, so retry bare (nothing would be
	// written anyway).
	patterns := make([]string, 0, len(rels))
	for _, rel := range rels {
		if !inNestedModule(moduleRoot, rel) {
			patterns = append(patterns, "./"+filepath.ToSlash(rel))
		}
	}
	if len(patterns) == 0 {
		return &EscapeData{Diags: map[string][]EscapeDiag{}}, nil
	}
	run := func(extra ...string) ([]byte, error) {
		args := append([]string{"build", "-gcflags=-m -m"}, extra...)
		args = append(args, patterns...)
		cmd := exec.Command("go", args...)
		cmd.Dir = moduleRoot
		return cmd.CombinedOutput()
	}
	out, err := run("-o", tmp)
	if err != nil && strings.Contains(string(out), "no main packages") {
		out, err = run()
	}
	if err != nil {
		// The compiler prints -m diagnostics even for successful
		// packages; a hard error means the build itself failed.
		return nil, fmt.Errorf("escape build failed: %v\n%s", err, out)
	}
	return ParseEscapeOutput(string(out)), nil
}

// inNestedModule reports whether the module-relative directory rel lies
// in a nested module (a directory below moduleRoot with its own go.mod,
// such as the benchmark). `go build` run from the root cannot name its
// packages, so the escape build leaves them out.
func inNestedModule(moduleRoot, rel string) bool {
	for dir := filepath.Clean(rel); dir != "."; dir = filepath.Dir(dir) {
		if _, err := os.Stat(filepath.Join(moduleRoot, dir, "go.mod")); err == nil {
			return true
		}
	}
	return false
}

func runEscapeCheck(pass *Pass) {
	if pass.Escapes == nil {
		return
	}
	for _, f := range pass.Files {
		rel := pass.RelFile[f]
		diags := pass.Escapes.Diags[rel]
		if len(diags) == 0 {
			continue
		}
		tf := pass.Fset.File(f.Pos())
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !hotpathMarked(fd) || fd.Body == nil {
				continue
			}
			start := pass.Fset.Position(fd.Pos()).Line
			end := pass.Fset.Position(fd.End()).Line
			for _, ed := range diags {
				if ed.Line < start || ed.Line > end {
					continue
				}
				pos := tf.LineStart(ed.Line)
				// Advance to the diagnostic's column when it stays within
				// the file (defensive: compiler and parser agree on
				// offsets for ASCII, which is all this repo uses).
				if off := tf.Offset(pos) + ed.Col - 1; off < tf.Size() {
					pos = tf.Pos(off)
				}
				pass.Reportf(pos, "compiler escape analysis contradicts //airlint:hotpath on %s: %s", fd.Name.Name, ed.Msg)
			}
		}
	}
}
