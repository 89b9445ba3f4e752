// Command airsim runs one wireless-broadcast simulation: it builds the
// chosen access method's broadcast cycle over a synthetic dictionary
// database and drives exponentially arriving client requests through it
// until the accuracy controller is satisfied, then reports access time and
// tuning time in bytes (the paper's two evaluation criteria).
//
// Examples:
//
//	airsim -scheme distributed -records 17500
//	airsim -scheme hashing -records 34000 -load 3
//	airsim -scheme signature -records 7000 -sig-bytes 8 -availability 0.5
//	airsim -scheme "(1,m)" -records 17500 -set multi.channels=4 -set multi.switchcost=1KiB
//	airsim -scheme distributed -records 2000 -set fault.rate=0.3
//
// Each -set knob=value is a setting from airql's knob table (DESIGN.md
// §11), applied after the flags above: the fault layer (fault.model,
// fault.rate, fault.retries, fault.recovery), the one error layer; the
// K-channel layer (multi.*); and the rest of the table bar scheme and
// records. A fault.rate with no fault.model means the drop model.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/airindex/airindex/internal/airql"
	"github.com/airindex/airindex/internal/core"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "airsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("airsim", flag.ContinueOnError)
	scheme := fs.String("scheme", "distributed", "access method: "+strings.Join(core.SchemeNames(), ", "))
	records := fs.Int("records", 17500, "number of broadcast records")
	recordSize := fs.Int("record-size", 500, "record payload bytes (includes the key)")
	keySize := fs.Int("key-size", 25, "encoded key bytes")
	availability := fs.Float64("availability", 1, "probability a request's key is broadcast [0,1]")
	seed := fs.Int64("seed", 42, "random seed")
	shards := fs.Int("shards", 1, "request-stream shards; the result depends on (seed, shards) only")
	accuracy := fs.Float64("accuracy", 0.01, "confidence accuracy H/Y stopping threshold")
	confidence := fs.Float64("confidence", 0.99, "confidence level")
	minReq := fs.Int("min-requests", 5000, "minimum requests before stopping")
	round := fs.Int("round", 500, "requests per accuracy-control round")
	maxReq := fs.Int("max-requests", 100000, "request cap")
	var sets []string
	fs.Func("set", "session-wide knob=value, e.g. fault.rate=0.01 or multi.channels=4 (repeatable; airql's knob table)", func(v string) error {
		sets = append(sets, v)
		return nil
	})
	m := fs.Int("m", 0, "(1,m) indexing: tree copies per cycle (0 = optimal)")
	r := fs.Int("r", -1, "distributed indexing: replicated levels (-1 = optimal)")
	load := fs.Float64("load", 3, "hashing: target records per hash position")
	sigBytes := fs.Int("sig-bytes", 16, "signature schemes: record signature bytes")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := core.DefaultConfig(*scheme, *records)
	cfg.Data.RecordSize = *recordSize
	cfg.Data.KeySize = *keySize
	cfg.Availability = *availability
	cfg.Seed = *seed
	cfg.Shards = *shards
	cfg.Accuracy = *accuracy
	cfg.Confidence = *confidence
	cfg.MinRequests = *minReq
	cfg.RoundSize = *round
	cfg.MaxRequests = *maxReq
	cfg.Onem.M = *m
	cfg.Dist.R = *r
	cfg.Hashing.LoadFactor = *load
	cfg.Signature.SigBytes = *sigBytes
	settings, err := airql.ParseSettings(sets)
	if err != nil {
		return err
	}
	airql.ApplySettings(&cfg, settings)

	res, err := core.RunOne(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "scheme            %s\n", res.Scheme)
	fmt.Fprintf(out, "records           %d (record %dB, key %dB)\n", *records, *recordSize, *keySize)
	fmt.Fprintf(out, "cycle             %d bytes\n", res.CycleBytes)
	keys := make([]string, 0, len(res.Params))
	for k := range res.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "param %-12s %g\n", k, res.Params[k])
	}
	fmt.Fprintf(out, "requests          %d (%d rounds, converged=%v)\n", res.Requests, res.Rounds, res.Converged)
	fmt.Fprintf(out, "found/not found   %d / %d\n", res.Found, res.NotFound)
	accH := res.Access.HalfWidth(cfg.Confidence)
	tunH := res.Tuning.HalfWidth(cfg.Confidence)
	fmt.Fprintf(out, "access time       %.0f bytes  (±%.0f at %.0f%% confidence; min %.0f max %.0f)\n",
		res.Access.Mean(), accH, cfg.Confidence*100, res.Access.Min(), res.Access.Max())
	fmt.Fprintf(out, "tuning time       %.0f bytes  (±%.0f; min %.0f max %.0f)\n",
		res.Tuning.Mean(), tunH, res.Tuning.Min(), res.Tuning.Max())
	fmt.Fprintf(out, "tail latencies    access p95/p99 %.0f/%.0f, tuning p95/p99 %.0f/%.0f\n",
		res.AccessP95, res.AccessP99, res.TuningP95, res.TuningP99)
	fmt.Fprintf(out, "bucket probes     %.2f per request\n", res.Probes.Mean())
	if res.Restarts > 0 {
		fmt.Fprintf(out, "error restarts    %d (%.3f per request)\n", res.Restarts, float64(res.Restarts)/float64(res.Requests))
	}
	if cfg.Multi.Enabled() {
		fmt.Fprintf(out, "channels          %d (%s allocation, switch cost %dB)\n",
			cfg.Multi.Channels, cfg.Multi.Policy, cfg.Multi.SwitchCost)
		fmt.Fprintf(out, "channel switches  %.2f per request (%.1f dozed bytes per request)\n",
			float64(res.Switches)/float64(res.Requests),
			float64(res.SwitchWaitBytes)/float64(res.Requests))
	}
	if cfg.Faults.Enabled() {
		fmt.Fprintf(out, "faults            model=%s rate=%g recovery=%s retries=%d\n",
			cfg.Faults.Model, cfg.Faults.Rate(), cfg.Faults.Recovery, cfg.Faults.MaxRetries)
		fmt.Fprintf(out, "wasted tuning     %d bytes (%.1f per request)\n",
			res.WastedBytes, float64(res.WastedBytes)/float64(res.Requests))
		fmt.Fprintf(out, "unrecovered       %d requests\n", res.Unrecovered)
	}
	return nil
}
