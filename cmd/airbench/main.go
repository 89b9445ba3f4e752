// Command airbench regenerates the paper's evaluation artifacts — Table 1
// and every series of Figures 4, 5 and 6 — plus the ablation studies
// documented in DESIGN.md. Each experiment prints the same rows the paper
// plots, with simulated (S) and analytical (A) columns side by side.
//
// Examples:
//
//	airbench all              # the full suite at paper settings
//	airbench fig4 fig5        # specific experiments
//	airbench -fast all        # reduced workloads (seconds, not minutes)
//	airbench -csv out/ fig6   # also write out/fig6a.csv, out/fig6b.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/airindex/airindex/internal/experiments"
	"github.com/airindex/airindex/internal/faults"
	"github.com/airindex/airindex/internal/multichannel"
	"github.com/airindex/airindex/internal/units"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "airbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("airbench", flag.ContinueOnError)
	fast := fs.Bool("fast", false, "reduced workloads and relaxed stopping rule")
	csvDir := fs.String("csv", "", "directory to write one CSV file per table")
	md := fs.Bool("md", false, "render tables as markdown instead of aligned text")
	plot := fs.Bool("plot", false, "also render each table as an ASCII chart")
	seed := fs.Int64("seed", 0, "seed override (0 = default)")
	shards := fs.Int("shards", 0, "shards per simulation run; results depend on (seed, shards) only (0 and 1 = one request stream)")
	engine := fs.String("engine", "", "request engine for every point: events (default) or cohort; results are bit-identical")
	quiet := fs.Bool("quiet", false, "suppress per-point progress lines")
	faultModel := fs.String("fault-model", "none", "apply an unreliable-channel error model to every point: none, iid, ge, drop")
	faultRate := fs.Float64("fault-rate", 0, "headline error rate for -fault-model [0,1): per-bucket loss (drop), per-bit BER (iid), bad-state corruption rate (ge)")
	faultRetries := fs.Int("fault-retries", 0, "corrupted reads tolerated per request (0 = unbounded)")
	faultRecovery := fs.String("fault-recovery", "restart", "re-tune policy after a corrupted read: restart, cycle")
	channels := fs.Int("channels", 0, "apply a K-channel allocation to every point (0 = single channel); the multich experiment sweeps its own")
	switchCost := fs.Int("switch-cost", 0, "channel-switch cost in bytes, dozed through (needs -channels)")
	alloc := fs.String("alloc", "replicated", "K-channel allocation policy: replicated, indexdata, skewed")
	indexChannels := fs.Int("index-channels", 0, "indexdata policy: dedicated index channels (0 = 1)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ids := fs.Args()
	if len(ids) == 0 {
		return fmt.Errorf("no experiments given; use 'all' or any of: %s", strings.Join(experiments.IDs(), " "))
	}

	opt := experiments.Options{Fast: *fast, Seed: *seed, Shards: *shards, Engine: *engine}
	model, err := faults.ParseModel(*faultModel)
	if err != nil {
		return err
	}
	recovery, err := faults.ParseRecovery(*faultRecovery)
	if err != nil {
		return err
	}
	opt.Faults = faults.FromRate(model, *faultRate)
	opt.Faults.Recovery = recovery
	opt.Faults.MaxRetries = *faultRetries
	if err := opt.Faults.Validate(); err != nil {
		return err
	}
	policy, err := multichannel.ParsePolicy(*alloc)
	if err != nil {
		return err
	}
	opt.Multi = multichannel.Config{
		Channels:      *channels,
		SwitchCost:    units.Bytes(*switchCost),
		Policy:        policy,
		IndexChannels: *indexChannels,
	}
	if err := opt.Multi.Validate(); err != nil {
		return err
	}
	if !*quiet {
		opt.Progress = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "  "+format+"\n", a...)
		}
	}

	var tables []*experiments.Table
	//airlint:allow determinism wall-clock timing of the CLI itself, not of simulated runs
	start := time.Now()
	for _, id := range ids {
		var (
			ts  []*experiments.Table
			err error
		)
		if id == "all" {
			ts, err = experiments.RunAll(opt)
		} else {
			ts, err = experiments.Run(id, opt)
		}
		if err != nil {
			return err
		}
		tables = append(tables, ts...)
	}

	for _, t := range tables {
		var err error
		if *md {
			err = t.WriteMarkdown(out)
		} else {
			err = t.WriteText(out)
		}
		if err != nil {
			return err
		}
		if *plot {
			if err := t.WritePlot(out, 72, 20); err != nil {
				return err
			}
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		for _, t := range tables {
			f, err := os.Create(filepath.Join(*csvDir, t.ID+".csv"))
			if err != nil {
				return err
			}
			if err := t.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	//airlint:allow determinism wall-clock timing of the CLI itself, not of simulated runs
	fmt.Fprintf(os.Stderr, "airbench: %d tables in %s\n", len(tables), time.Since(start).Round(time.Millisecond))
	return nil
}
