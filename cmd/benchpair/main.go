// Command benchpair is the performance gate. It runs the committed
// benchmark (every BENCHMARK.json workload through bench/run.sh) and
// every scenario script on a base revision and on HEAD, in interleaved
// pairs, and judges each end-to-end metric from the two sides' medians:
//
//	benchpair -base <rev> -out BENCH_<n>.json
//
// A metric is worse when the change's median is worse than the base's by
// more than its bound, unresolved when the base's interquartile range
// over its median exceeds the bound and not every change run beats every
// base run, and ok otherwise. A script's wall time takes run_s's bound.
// The command exits 1 on a worse metric, a rise in failed operations or
// a run that prints correct:false; scripts whose CSVs differ between the
// sides are recorded only. Both revisions are cloned into a temporary
// directory that is removed on every exit.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The measurement is fixed: no flag changes how much is run.
const (
	pairs   = 10
	seed    = "42"
	seconds = "2"
)

// metric is one end-to-end metric of BENCHMARK.json.
type metric struct {
	Name   string
	Better string
	Bound  float64
}

type benchmark struct {
	Workloads []struct{ Name string }
	EndToEnd  []metric `json:"end_to_end"`
}

// result is the last line of a bench/run.sh run; a script run is a
// correct result whose one metric, run_s, is its wall time.
type result struct {
	Correct bool
	Failed  int64
	Metrics map[string]struct{ Value float64 }
}

type row struct {
	Metric  string  `json:"metric"`
	Base    float64 `json:"base_median"`
	Change  float64 `json:"change_median"`
	Ratio   float64 `json:"ratio"`
	Bound   float64 `json:"bound"`
	Verdict string  `json:"verdict"`
}

// entry is one workload's or script's verdicts. Index 0 of a pair is the
// base, 1 the change.
type entry struct {
	Name         string   `json:"name"`
	Failed       [2]int64 `json:"failed"`
	Correct      [2]bool  `json:"correct"`
	CSVIdentical *bool    `json:"csv_identical,omitempty"`
	Metrics      []row    `json:"metrics"`
}

// ledger is the BENCH_<n>.json file.
type ledger struct {
	Revisions [2]string          `json:"revisions"`
	Contexts  [2]json.RawMessage `json:"contexts"`
	Pairs     int                `json:"pairs"`
	Entries   []entry            `json:"entries"`
}

// side is one revision's clone and what its runs measured.
type side struct {
	rev, dir string
	context  json.RawMessage
	runs     map[string][]result // by workload or script
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchpair", flag.ContinueOnError)
	base := fs.String("base", "", "revision to measure HEAD against")
	out := fs.String("out", "", "file to write the JSON ledger to (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *base == "" || *out == "" || fs.NArg() > 0 {
		return errors.New("usage: benchpair -base <rev> -out <file>")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	tmp, err := os.MkdirTemp("", "benchpair-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	var sides [2]*side
	for i, rev := range []string{*base, "HEAD"} {
		if sides[i], err = checkOut(ctx, rev, filepath.Join(tmp, strconv.Itoa(i))); err != nil {
			return err
		}
	}
	var bm benchmark
	data, err := os.ReadFile(filepath.Join(sides[1].dir, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(data, &bm)
	}
	if err != nil {
		return err
	}
	var scripts []string
	paths, _ := filepath.Glob(filepath.Join(sides[1].dir, "scenarios", "*.airql"))
	for _, p := range paths {
		if _, err := os.Stat(filepath.Join(sides[0].dir, "scenarios", filepath.Base(p))); err == nil {
			scripts = append(scripts, filepath.Base(p))
		}
	}

	identical := map[string]bool{}
	for p := 0; p < pairs; p++ {
		order := [2]int{p % 2, 1 - p%2}
		for _, w := range bm.Workloads {
			for _, i := range order {
				if err := sides[i].bench(ctx, w.Name); err != nil {
					return err
				}
			}
		}
		for _, s := range scripts {
			for _, i := range order {
				if err := sides[i].scenario(ctx, s, filepath.Join(tmp, "out"+strconv.Itoa(i))); err != nil {
					return err
				}
			}
			err := exec.CommandContext(ctx, "diff", "-rq", filepath.Join(tmp, "out0"), filepath.Join(tmp, "out1")).Run()
			var exit *exec.ExitError
			if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
				return err
			}
			identical[s] = (p == 0 || identical[s]) && err == nil
		}
		fmt.Fprintf(os.Stderr, "benchpair: pair %d/%d done\n", p+1, pairs)
	}

	l := ledger{
		Revisions: [2]string{sides[0].rev, sides[1].rev},
		Contexts:  [2]json.RawMessage{sides[0].context, sides[1].context},
		Pairs:     pairs,
		Entries:   summarize(bm, scripts, [2]map[string][]result{sides[0].runs, sides[1].runs}, identical),
	}
	data, err = json.MarshalIndent(l, "", "  ")
	if err == nil {
		err = os.WriteFile(*out, append(data, '\n'), 0o644)
	}
	if f := failures(l.Entries); err == nil && len(f) > 0 {
		err = errors.New(strings.Join(f, "; "))
	}
	return err
}

// checkOut clones the repository at rev into dir and builds airql there.
func checkOut(ctx context.Context, rev, dir string) (*side, error) {
	sha, err := command(ctx, "", "git", "rev-parse", "--verify", rev+"^{commit}")
	if err != nil {
		return nil, err
	}
	top, err := command(ctx, "", "git", "rev-parse", "--show-toplevel")
	if err != nil {
		return nil, err
	}
	s := &side{rev: strings.TrimSpace(sha), dir: dir, runs: map[string][]result{}}
	for _, c := range [][]string{
		{"", "git", "clone", "--quiet", "--shared", "--no-checkout", strings.TrimSpace(top), dir},
		{dir, "git", "checkout", "--quiet", "--detach", s.rev},
		{dir, "go", "build", "-o", "airql.bin", "./cmd/airql"},
	} {
		if _, err := command(ctx, c[0], c[1], c[2:]...); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// bench runs one workload through the side's bench/run.sh.
func (s *side) bench(ctx context.Context, workload string) error {
	out, err := command(ctx, s.dir, "bash", "bench/run.sh", "--workload", workload, "--seed", seed, "--seconds", seconds, "--trace", "0")
	if err != nil {
		return err
	}
	line, r, err := parseRun(out)
	if err != nil {
		return fmt.Errorf("%s at %.12s: %w", workload, s.rev, err)
	}
	if s.context == nil {
		s.context = line
	}
	s.runs[workload] = append(s.runs[workload], r)
	return nil
}

// scenario runs one script through the side's airql into a fresh
// directory and records its wall time.
func (s *side) scenario(ctx context.Context, script, out string) error {
	if err := os.RemoveAll(out); err != nil {
		return err
	}
	//airlint:allow determinism wall-clock timing of a child process, not of a simulated run
	start := time.Now()
	if _, err := command(ctx, s.dir, "./airql.bin", "-fast", "-quiet", "-out", out, filepath.Join("scenarios", script)); err != nil {
		return err
	}
	//airlint:allow determinism wall-clock timing of a child process, not of a simulated run
	wall := time.Since(start).Seconds()
	s.runs[script] = append(s.runs[script], result{Correct: true, Metrics: map[string]struct{ Value float64 }{"run_s": {wall}}})
	return nil
}

// command runs name in dir, passing its standard error through, and
// returns its standard output.
func command(ctx context.Context, dir, name string, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		err = fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	return string(out), err
}

// parseRun reads the context line and the result line that end
// bench/run.sh's output.
func parseRun(out string) (json.RawMessage, result, error) {
	var r result
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 2 || !json.Valid([]byte(lines[len(lines)-2])) {
		return nil, r, fmt.Errorf("want a context line and a result line, got %q", out)
	}
	err := json.Unmarshal([]byte(lines[len(lines)-1]), &r)
	return json.RawMessage(lines[len(lines)-2]), r, err
}

// summarize judges every workload on every end-to-end metric and every
// script on run_s.
func summarize(bm benchmark, scripts []string, runs [2]map[string][]result, identical map[string]bool) []entry {
	var entries []entry
	for _, w := range bm.Workloads {
		entries = append(entries, judgeAll(w.Name, bm.EndToEnd, runs))
	}
	i := slices.IndexFunc(bm.EndToEnd, func(m metric) bool { return m.Name == "run_s" })
	for _, s := range scripts {
		e := judgeAll(s, bm.EndToEnd[i:i+1], runs)
		same := identical[s]
		e.CSVIdentical = &same
		entries = append(entries, e)
	}
	return entries
}

func judgeAll(name string, metrics []metric, runs [2]map[string][]result) entry {
	e := entry{Name: name, Correct: [2]bool{true, true}}
	for i := range runs {
		for _, r := range runs[i][name] {
			e.Failed[i] += r.Failed
			e.Correct[i] = e.Correct[i] && r.Correct
		}
	}
	for _, m := range metrics {
		var v [2][]float64
		for i := range runs {
			for _, r := range runs[i][name] {
				v[i] = append(v[i], r.Metrics[m.Name].Value)
			}
		}
		e.Metrics = append(e.Metrics, judge(m, v[0], v[1]))
	}
	return e
}

// judge gives one metric's verdict from the two sides' runs.
func judge(m metric, base, change []float64) row {
	b, c := quantile(base, 0.5), quantile(change, 0.5)
	r := row{Metric: m.Name, Base: b, Change: c, Bound: m.Bound, Verdict: "ok"}
	if b > 0 {
		r.Ratio = c / b
	}
	worse, beatsAll := c < b*(1-m.Bound), slices.Min(change) > slices.Max(base)
	if m.Better == "lower" {
		worse, beatsAll = c > b*(1+m.Bound), slices.Max(change) < slices.Min(base)
	}
	switch {
	case worse:
		r.Verdict = "worse"
	case (quantile(base, 0.75)-quantile(base, 0.25))/b > m.Bound && !beatsAll:
		r.Verdict = "unresolved"
	}
	return r
}

// quantile is the q-quantile of v, interpolated between order statistics.
func quantile(v []float64, q float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 == len(s) {
		return s[i]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// failures lists what fails the gate.
func failures(entries []entry) []string {
	var f []string
	for _, e := range entries {
		if e.Failed[1] > e.Failed[0] {
			f = append(f, fmt.Sprintf("%s: failed operations rose from %d to %d", e.Name, e.Failed[0], e.Failed[1]))
		}
		if !e.Correct[0] || !e.Correct[1] {
			f = append(f, fmt.Sprintf("%s: a run printed correct:false (base %t, change %t)", e.Name, e.Correct[0], e.Correct[1]))
		}
		for _, r := range e.Metrics {
			if r.Verdict == "worse" {
				f = append(f, e.Name+" "+r.Metric+" is worse")
			}
		}
	}
	return f
}
