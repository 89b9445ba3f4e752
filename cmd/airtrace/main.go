// Command airtrace prints a probe-by-probe walkthrough of one client query
// under any access method: every tune-in, every doze, and the final
// access/tuning accounting. It is the fastest way to see *why* each scheme
// has the cost profile the paper reports.
//
// Examples:
//
//	airtrace -scheme distributed -records 2000 -pick 1500
//	airtrace -scheme hashing -records 500 -missing
//	airtrace -scheme signature -arrival 123456
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/airindex/airindex/internal/core"
	"github.com/airindex/airindex/internal/datagen"
	"github.com/airindex/airindex/internal/schemes/dist"
	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "airtrace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("airtrace", flag.ContinueOnError)
	scheme := fs.String("scheme", dist.Name, "access method: "+strings.Join(core.SchemeNames(), ", "))
	records := fs.Int("records", 2000, "number of broadcast records")
	pick := fs.Int("pick", -1, "record index to query (-1 = middle)")
	missing := fs.Bool("missing", false, "query a key that is not broadcast")
	arrival := fs.Int64("arrival", 12345, "request arrival time in bytes")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := core.DefaultConfig(*scheme, *records)
	ds, err := datagen.Generate(cfg.Data)
	if err != nil {
		return err
	}
	bc, err := core.BuildBroadcast(ds, cfg)
	if err != nil {
		return err
	}

	idx := *pick
	if idx < 0 || idx >= ds.Len() {
		idx = ds.Len() / 2
	}
	key := ds.KeyAt(idx)
	what := fmt.Sprintf("record %d", idx)
	if *missing {
		key = ds.MissingKeyNear(idx)
		what = fmt.Sprintf("a key absent near record %d", idx)
	}

	ch := bc.Channel()
	fmt.Fprintf(out, "scheme %s: %d buckets per cycle, %d bytes; querying %s\n\n",
		bc.Name(), ch.NumBuckets(), ch.CycleLen(), what)
	tr, err := trace.Run(bc, key, sim.Time(*arrival))
	if err != nil {
		return err
	}
	return tr.Write(out)
}
