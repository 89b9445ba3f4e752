// Command airmodel prints the paper's analytical model curves (§2) without
// running any simulation: access time and tuning time in bytes for each
// scheme over a record-count sweep. Each point builds the real broadcast
// and evaluates core.Analytic on its layout, so the curves are the (A)
// columns of the Figure 4 tables. Useful for sanity-checking simulation
// output and for exploring parameter choices quickly.
//
// Examples:
//
//	airmodel -from 7000 -to 34000 -step 4500
//	airmodel -set data.keybytes=40 -set hashing.load=2
//
// Each -set knob=value is a setting from airql's knob table (DESIGN.md
// §11), as in airsim. The fault.* knobs are refused: the closed forms
// assume a perfect channel.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"github.com/airindex/airindex/internal/airql"
	"github.com/airindex/airindex/internal/core"
	"github.com/airindex/airindex/internal/datagen"
	"github.com/airindex/airindex/internal/schemes/dist"
	"github.com/airindex/airindex/internal/schemes/flat"
	"github.com/airindex/airindex/internal/schemes/hashing"
	"github.com/airindex/airindex/internal/schemes/onem"
	"github.com/airindex/airindex/internal/schemes/signature"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "airmodel:", err)
		os.Exit(1)
	}
}

// columns are the printed schemes, in header order.
var columns = []string{flat.Name, dist.Name, onem.Name, hashing.Name, signature.Name}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("airmodel", flag.ContinueOnError)
	from := fs.Int("from", 7000, "sweep start (records)")
	to := fs.Int("to", 34000, "sweep end (records)")
	step := fs.Int("step", 4500, "sweep step")
	var sets []string
	fs.Func("set", "knob=value for every built broadcast, e.g. data.keybytes=40 or hashing.load=2 (repeatable; airql's knob table, DESIGN.md §11; fault.* refused)", func(v string) error {
		sets = append(sets, v)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *from <= 0 || *to < *from || *step <= 0 {
		return fmt.Errorf("invalid sweep %d..%d step %d", *from, *to, *step)
	}
	settings, err := airql.ParseSettings(sets)
	if err != nil {
		return err
	}
	for _, s := range settings {
		if strings.HasPrefix(s.Knob(), "fault.") {
			return fmt.Errorf("-set %s: the closed forms assume a perfect channel", s.Knob())
		}
	}

	w := tabwriter.NewWriter(out, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "records\tflat At\tflat Tt\tdist At\tdist Tt\t(1,m) At\t(1,m) Tt\thash At\thash Tt\tsig At\tsig Tt\t")
	for nr := *from; nr <= *to; nr += *step {
		fmt.Fprintf(w, "%d\t", nr)
		var ds *datagen.Dataset
		for _, scheme := range columns {
			cfg := core.DefaultConfig(scheme, nr)
			if err := airql.ApplySettings(&cfg, settings); err != nil {
				return err
			}
			if ds == nil {
				// The data geometry is scheme-independent: one dataset per row.
				if ds, err = datagen.Generate(cfg.Data); err != nil {
					return err
				}
			}
			bc, err := core.BuildBroadcast(ds, cfg)
			if err != nil {
				return err
			}
			at, tt := core.Analytic(cfg, bc.Params())
			fmt.Fprintf(w, "%.0f\t%.0f\t", at, tt)
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}
