package sim

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// labelScan is the result of scanning a tree's StreamSeed call sites.
type labelScan struct {
	sites    int      // call sites seen
	problems []string // one "file.go:line: message" per bad label
}

// scanStreamSeedLabels walks the non-test Go files under root (skipping
// testdata and dot directories below it) in lexical order and checks
// every StreamSeed(seed, shard, label) call: the label must be a
// non-empty string literal — not a computed value, nor even a named
// constant — and no label may repeat anywhere in the tree. A repeat is
// reported at each site after the first.
func scanStreamSeedLabels(root string) (labelScan, error) {
	var scan labelScan
	fset := token.NewFileSet()
	first := make(map[string]token.Position)
	report := func(pos token.Position, format string, args ...any) {
		scan.problems = append(scan.problems,
			fmt.Sprintf("%s:%d: %s", filepath.Base(pos.Filename), pos.Line, fmt.Sprintf(format, args...)))
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 3 {
				return true
			}
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				if fun.Name != "StreamSeed" {
					return true
				}
			case *ast.SelectorExpr:
				if fun.Sel.Name != "StreamSeed" {
					return true
				}
			default:
				return true
			}
			scan.sites++
			pos := fset.Position(call.Args[2].Pos())
			lit, ok := call.Args[2].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				report(pos, "StreamSeed label is not a string literal")
				return true
			}
			label, err := strconv.Unquote(lit.Value)
			if err != nil || label == "" {
				report(pos, "StreamSeed label %s is empty or malformed", lit.Value)
				return true
			}
			if prev, ok := first[label]; ok {
				report(pos, "StreamSeed label %q already used at %s; duplicate labels yield identical substreams", label, prev)
				return true
			}
			first[label] = pos
			return true
		})
		return nil
	})
	return scan, err
}

// TestStreamSeedLabelsUnique enforces the substream-label contract
// (DESIGN.md §7): it enumerates every StreamSeed call site in the module,
// bench/ included, and asserts each label is a string literal and no
// label is used twice.
func TestStreamSeedLabelsUnique(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not at %s: %v", root, err)
	}
	scan, err := scanStreamSeedLabels(root)
	if err != nil {
		t.Fatal(err)
	}
	if scan.sites == 0 {
		t.Fatal("no StreamSeed call sites found in the module; the scan is looking at the wrong tree")
	}
	for _, p := range scan.problems {
		t.Error(p)
	}
}

// TestStreamSeedLabelsFixture holds the scan to its fixtures: a computed
// label, an empty label, a duplicate within one package, and a duplicate
// across packages must each be reported, and nothing else.
func TestStreamSeedLabelsFixture(t *testing.T) {
	scan, err := scanStreamSeedLabels(filepath.Join("testdata", "labels"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range scan.problems {
		got = append(got, p[:strings.Index(p, ": ")])
	}
	want := []string{"rngbad.go:8", "rngbad.go:9", "rngbad.go:11", "rngdup.go:9"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("label problems at %v, want %v; full report:\n%s", got, want, strings.Join(scan.problems, "\n"))
	}
	if d := scan.problems[len(scan.problems)-1]; !strings.Contains(d, `"faults"`) || !strings.Contains(d, "rngbad.go:10") {
		t.Errorf("cross-package duplicate %q should name the label and its first site", d)
	}
}
