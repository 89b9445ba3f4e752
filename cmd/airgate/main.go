// Command airgate is the benchmark-regression gate for the request
// engine's batched kernels. It times a pinned flat-broadcast workload two
// ways — core's Simulator.Run, and a reference loop that walks each
// request with access.Walk and a fresh client over the same seeded keys
// and arrivals, the per-request work of an unbatched engine — computes
// the Run/reference throughput ratio, and fails when that ratio has
// regressed by more than the allowed fraction against the checked-in
// baseline (ci/bench-baseline.json).
//
// The gate compares the *ratio* rather than raw requests/sec, so it
// tolerates slower or faster CI machines: both sides run on the same
// hardware in the same process, and only their relative speed is
// pinned. Flat's clean runs take the closed-form resolver, so a change
// that knocks Run off it drops the ratio to about one. The Run side
// forces MinRequests == MaxRequests so every trial executes exactly the
// same request count (the stopping rule is only consulted once the cap
// is reached).
//
// Usage:
//
//	airgate                 # gate against ci/bench-baseline.json
//	airgate -update         # re-measure and rewrite the baseline
//	airgate -trials 5       # more trials (best-of-N wall clock)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/core"
	"github.com/airindex/airindex/internal/sim"
)

// The pinned workload. Flat over 2,000 records keeps a trial under a
// second while exercising Run's resolver fast path and the reference
// loop's full bucket-by-bucket walks; the request counts are sized so
// setup cost is amortised for each side at its own speed.
const (
	gateScheme       = "flat"
	gateRecords      = 2000
	gateSeed         = 42
	gateRefRequests  = 40000
	gateRunRequests  = 400000
	defaultTrials    = 3
	defaultBaseline  = "ci/bench-baseline.json"
	defaultTolerance = 0.15 // fail on >15% ratio regression
)

// baseline is the checked-in measurement the gate compares against.
type baseline struct {
	Scheme            string  `json:"scheme"`
	Records           int     `json:"records"`
	ReferenceRequests int     `json:"reference_requests"`
	RunRequests       int     `json:"run_requests"`
	Trials            int     `json:"trials"`
	ReferenceRPS      float64 `json:"reference_rps"`
	RunRPS            float64 `json:"run_rps"`
	Ratio             float64 `json:"ratio"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "airgate:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("airgate", flag.ContinueOnError)
	baselinePath := fs.String("baseline", defaultBaseline, "baseline JSON to gate against")
	update := fs.Bool("update", false, "re-measure and rewrite the baseline instead of gating")
	trials := fs.Int("trials", defaultTrials, "wall-clock trials per side (best of N)")
	tolerance := fs.Float64("tolerance", defaultTolerance, "allowed Run/reference ratio regression fraction")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trials < 1 {
		return fmt.Errorf("need at least one trial, got %d", *trials)
	}
	if *tolerance <= 0 || *tolerance >= 1 {
		return fmt.Errorf("tolerance must be in (0,1), got %g", *tolerance)
	}

	refRPS, err := bestOf(*trials, gateRefRequests, serveReference)
	if err != nil {
		return err
	}
	runRPS, err := bestOf(*trials, gateRunRequests, serveRun)
	if err != nil {
		return err
	}
	ratio := runRPS / refRPS
	fmt.Printf("reference  %12.0f req/s  (%s, %d records, %d requests, best of %d)\n",
		refRPS, gateScheme, gateRecords, gateRefRequests, *trials)
	fmt.Printf("run        %12.0f req/s  (%s, %d records, %d requests, best of %d)\n",
		runRPS, gateScheme, gateRecords, gateRunRequests, *trials)
	fmt.Printf("ratio      %12.2fx\n", ratio)

	if *update {
		b := baseline{
			Scheme:            gateScheme,
			Records:           gateRecords,
			ReferenceRequests: gateRefRequests,
			RunRequests:       gateRunRequests,
			Trials:            *trials,
			ReferenceRPS:      refRPS,
			RunRPS:            runRPS,
			Ratio:             ratio,
		}
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*baselinePath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("baseline   wrote %s\n", *baselinePath)
		return nil
	}

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		return fmt.Errorf("no baseline (run with -update to create one): %w", err)
	}
	var base baseline
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parse %s: %w", *baselinePath, err)
	}
	if base.Ratio <= 0 {
		return fmt.Errorf("%s has no positive ratio; rerun with -update", *baselinePath)
	}
	floor := base.Ratio * (1 - *tolerance)
	fmt.Printf("baseline   %12.2fx  (floor %.2fx at %g tolerance)\n", base.Ratio, floor, *tolerance)
	if ratio < floor {
		return fmt.Errorf("Run/reference throughput ratio %.2fx regressed below %.2fx (baseline %.2fx - %g%%)",
			ratio, floor, base.Ratio, *tolerance*100)
	}
	fmt.Println("gate       PASS")
	return nil
}

// gateConfig is the pinned workload at an exact request count:
// MinRequests == MaxRequests, so the stopping rule cannot fire before
// the cap.
func gateConfig(requests int) core.Config {
	cfg := core.DefaultConfig(gateScheme, gateRecords)
	cfg.Seed = gateSeed
	cfg.RoundSize = 500
	cfg.MinRequests = requests
	cfg.MaxRequests = requests
	return cfg
}

// bestOf returns the best requests/sec over n trials of one side. Each
// trial builds a fresh simulator outside the timed region, so datagen
// and cycle construction do not dilute the measured throughput.
func bestOf(n, requests int, serve func(*core.Simulator, int) error) (float64, error) {
	best := 0.0
	for i := 0; i < n; i++ {
		s, err := core.New(gateConfig(requests))
		if err != nil {
			return 0, err
		}
		//airlint:allow determinism wall-clock timing of the CLI itself, not of simulated runs
		start := time.Now()
		if err := serve(s, requests); err != nil {
			return 0, err
		}
		//airlint:allow determinism wall-clock timing of the CLI itself, not of simulated runs
		if rps := float64(requests) / time.Since(start).Seconds(); rps > best {
			best = rps
		}
	}
	return best, nil
}

// serveRun serves the requests through Simulator.Run.
func serveRun(s *core.Simulator, requests int) error {
	res, err := s.Run()
	if err == nil && res.Requests != int64(requests) {
		err = fmt.Errorf("Run served %d requests, want exactly %d", res.Requests, requests)
	}
	return err
}

// serveReference is the reference loop: Run's one-stream request draws
// (the pending arrival, then per request the key and the gap to the
// next arrival; every key is present) with each request walked by
// access.Walk on a fresh client.
func serveReference(s *core.Simulator, requests int) error {
	bc, ds := s.Broadcast(), s.Dataset()
	cfg := gateConfig(requests)
	rng := sim.NewRNG(cfg.Seed)
	next := rng.Exponential(cfg.RequestMean)
	for i := 0; i < requests; i++ {
		key := ds.KeyAt(rng.Intn(ds.Len()))
		r, err := access.Walk(bc.Channel(), bc.NewClient(key), next, 0)
		if err != nil {
			return err
		}
		if !r.Found {
			return fmt.Errorf("reference loop missed present key %d", key)
		}
		next += rng.Exponential(cfg.RequestMean)
	}
	return nil
}
