package access

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"sort"
	"strings"
	"testing"

	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/units"
)

// loopClient is an allocation-free resettable protocol stub: a fixed
// number of serial reads, then done. The pointer is converted to the
// Client interface once, outside the measured region.
type loopClient struct {
	reads int
	quota int
}

func (c *loopClient) OnBucket(i units.BucketIndex, end sim.Time) Step {
	c.reads++
	if c.reads >= c.quota {
		return Done(true)
	}
	return Next()
}

// exportedHotpathFuncs parses the package's non-test sources and returns
// the exported functions whose doc comment carries //airlint:hotpath —
// the ground truth the alloc table below must cover.
func exportedHotpathFuncs(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Doc == nil || fd.Recv != nil || !fd.Name.IsExported() {
					continue
				}
				for _, c := range fd.Doc.List {
					if strings.TrimSpace(c.Text) == "//airlint:hotpath" {
						names = append(names, fd.Name.Name)
					}
				}
			}
		}
	}
	sort.Strings(names)
	return names
}

// TestWalkersAllocFree is the runtime backstop behind escapecheck: the
// static analyzers promise the walkers are allocation-free, AllocsPerRun
// verifies it against the live runtime. The table is generated from the
// //airlint:hotpath markers themselves, so adding a marked exported
// walker without a row here fails the test.
func TestWalkersAllocFree(t *testing.T) {
	ch := testChannel(t, 10, 20, 30, 40, 50, 60, 70, 80)
	set := k1Set(t, ch)
	lc := &loopClient{quota: 6}
	newCli := func() Client {
		lc.reads = 0
		return lc
	}
	var err error

	table := map[string]func(){
		"Walk": func() {
			lc.reads = 0
			_, err = Walk(ch, lc, 3, 0)
		},
		"WalkRecover": func() {
			_, err = WalkRecover(ch, newCli, 3, nil, RecoverPolicy{}, 0)
		},
		"WalkRecoverMulti": func() {
			_, err = WalkRecoverMulti(set, newCli, 3, nil, RecoverPolicy{}, 0)
		},
	}

	want := exportedHotpathFuncs(t)
	if len(want) == 0 {
		t.Fatal("no exported //airlint:hotpath functions found; parser or markers broken")
	}
	for _, name := range want {
		fn, ok := table[name]
		if !ok {
			t.Errorf("exported hotpath function %s has no allocation-test row", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			fn() // warm up; surfaces errors before measuring
			if err != nil {
				t.Fatal(err)
			}
			if avg := testing.AllocsPerRun(200, fn); avg != 0 {
				t.Errorf("%s allocates %v times per run, want 0", name, avg)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	for name := range table {
		found := false
		for _, w := range want {
			if w == name {
				found = true
			}
		}
		if !found {
			t.Errorf("allocation-test row %s does not match any exported hotpath function", name)
		}
	}
}
