package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/airindex/airindex/internal/airql"
	"github.com/airindex/airindex/internal/core"
	"github.com/airindex/airindex/scenarios"
)

// fig4 is the fig4-paper workload: scenarios/fig4.airql at the full
// profile, 7 record counts times 4 schemes, each point run to the
// Table 1 stopping rule on the default events engine. Set-up is
// airql.Compile; a pass is airql.Execute then airql.Emit, and it is also
// the one operation, the figure a user waits for. A sweep point is not an
// operation: airql runs the points side by side, so the order in which
// they finish, and with it any percentile of their finishing times,
// flipped between neighbouring points from run to run.
type fig4 struct {
	seed    int64
	src     string
	fast    bool
	emitDir string
	expect  map[string][]string // CSV sink path -> committed lines

	prog    *airql.Program
	checks  tally
	lastErr error
}

// fig4Tolerance bounds a simulated (S) cell's relative distance from the
// committed value at a seed other than the one results/ was made with.
const fig4Tolerance = 0.10

func newFig4(seed int64, tiny bool, root, scratch string) (*fig4, error) {
	src, err := scenarios.Source("fig4.airql")
	if err != nil {
		return nil, err
	}
	f := &fig4{seed: seed, src: src, emitDir: filepath.Join(scratch, "fig4"), expect: map[string][]string{}}
	if tiny {
		f.src, f.fast = tinyFig4(src), true
	}
	prog, err := airql.Compile("fig4.airql", f.src)
	if err != nil {
		return nil, err
	}
	for _, path := range csvSinks(prog) {
		data, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(path)))
		if err != nil {
			return nil, fmt.Errorf("fig4 expected output: %w", err)
		}
		f.expect[path] = lines(data)
	}
	return f, nil
}

// tinyRecords is the one record count of the tests' cut-down sweep.
const tinyRecords = 2000

// tinyFig4 cuts the sweep to one record count, for the tests.
func tinyFig4(src string) string {
	re := regexp.MustCompile(`(?m)^SWEEP records=.*$`)
	return re.ReplaceAllString(src, fmt.Sprintf("SWEEP records=%d", tinyRecords))
}

func csvSinks(prog *airql.Program) []string {
	var paths []string
	for _, t := range prog.Tables {
		for _, s := range t.Sinks {
			if s.Name == "csv" {
				paths = append(paths, s.Arg)
			}
		}
	}
	return paths
}

func lines(data []byte) []string {
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
}

func (f *fig4) setup() error {
	prog, err := airql.Compile("fig4.airql", f.src)
	f.prog = prog
	return err
}

var requestsRE = regexp.MustCompile(`requests=(\d+)`)

func (f *fig4) pass(tr *tracer) (int64, []time.Duration, error) {
	var mu sync.Mutex
	var points, requests int64
	var progressErr error
	t0 := now()
	opt := airql.Options{Fast: f.fast, Seed: f.seed, Progress: func(format string, args ...any) {
		m := requestsRE.FindStringSubmatch(fmt.Sprintf(format, args...))
		mu.Lock()
		defer mu.Unlock()
		points++
		if m == nil {
			progressErr = fmt.Errorf("airql progress line without requests=: %q", format)
			return
		}
		n, _ := strconv.ParseInt(m[1], 10, 64) // \d+ always parses
		requests += n
	}}
	sp := tr.begin("airql.execute", 0, -1)
	tables, err := airql.Execute(f.prog, opt)
	tr.end(sp, points)
	if err != nil {
		return 0, nil, err
	}
	sp = tr.begin("airql.emit", 0, -1)
	f.lastErr = airql.Emit(f.prog, tables, f.emitDir, io.Discard)
	tr.end(sp, int64(len(tables)))
	return requests, []time.Duration{now().Sub(t0)}, progressErr
}

// verify compares each emitted CSV with the committed one, row by row.
// At the seed results/ was made with, rows must match byte for byte.
// At any other seed the analytic (A) cells and the x column must match
// exactly, and each simulated (S) cell must lie within fig4Tolerance.
func (f *fig4) verify() {
	for path, want := range f.expect {
		data, err := os.ReadFile(filepath.Join(f.emitDir, filepath.FromSlash(path)))
		if err != nil || f.lastErr != nil {
			data = nil
		}
		f.checks.add(compareCSV(lines(data), want, f.seed == defaultSeed))
	}
}

func (f *fig4) tally() tally { return f.checks }

// compareCSV checks got against want; the unit of failure is one data
// row, and a different header fails every row.
func compareCSV(got, want []string, exact bool) tally {
	t := tally{attempted: int64(len(want) - 1)}
	if len(got) == 0 || got[0] != want[0] {
		t.failed = t.attempted
		return t
	}
	header := strings.Split(want[0], ",")
	for i := 1; i < len(want); i++ {
		ok := i < len(got)
		if ok && exact {
			ok = got[i] == want[i]
		} else if ok {
			ok = rowWithin(strings.Split(got[i], ","), strings.Split(want[i], ","), header)
		}
		if !ok {
			t.failed++
		}
	}
	return t
}

func rowWithin(got, want, header []string) bool {
	if len(got) != len(want) || len(want) != len(header) {
		return false
	}
	for j := range want {
		if !strings.HasSuffix(header[j], "(S)") {
			if got[j] != want[j] {
				return false
			}
			continue
		}
		g, err1 := strconv.ParseFloat(got[j], 64)
		w, err2 := strconv.ParseFloat(want[j], 64)
		if err1 != nil || err2 != nil || math.Abs(g-w) > fig4Tolerance*math.Abs(w) {
			return false
		}
	}
	return true
}

// probeCases are the four schemes at the sweep's largest record count,
// under the profile the pass runs.
func (f *fig4) probeCases() []core.Config {
	opt := airql.Options{Fast: f.fast, Seed: f.seed}
	records := tinyRecords
	if !f.fast {
		sweep := opt.RecordSweep()
		records = sweep[len(sweep)-1]
	}
	var cfgs []core.Config
	for _, scheme := range []string{"flat", "distributed", "hashing", "signature"} {
		cfgs = append(cfgs, opt.BaseConfig(scheme, records))
	}
	return cfgs
}
