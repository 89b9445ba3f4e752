package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/airindex/airindex/internal/faults"
	"github.com/airindex/airindex/internal/multichannel"
	"github.com/airindex/airindex/internal/schemes/bdisk"
	"github.com/airindex/airindex/internal/schemes/dist"
	"github.com/airindex/airindex/internal/schemes/flat"
	"github.com/airindex/airindex/internal/schemes/hashing"
	"github.com/airindex/airindex/internal/schemes/hybrid"
	"github.com/airindex/airindex/internal/schemes/onem"
	"github.com/airindex/airindex/internal/schemes/signature"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/results.golden from the current engines")

const goldenPath = "testdata/results.golden"

// goldenCase is one pinned run: a workload variant at one shard count on
// one engine.
type goldenCase struct {
	name string
	cfg  Config
}

// goldenVariants are the workload and channel configurations the golden
// file pins. The builtin schemes are listed by name rather than through
// SchemeNames, which also returns schemes tests register at run time.
func goldenVariants() []goldenCase {
	var vs []goldenCase
	for _, scheme := range []string{
		bdisk.Name, dist.Name, flat.Name, hashing.Name, hybrid.Name, onem.Name,
		signature.Name, signature.IntegratedName, signature.MultiLevelName,
	} {
		vs = append(vs, goldenCase{scheme, smallConfig(scheme, 300)})
	}
	mutations := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zipf", func(c *Config) { c.ZipfS = 1.3 }},
		{"partialavail", func(c *Config) { c.Availability = 0.7 }},
		{"faults-drop", func(c *Config) { c.Faults = faults.FromRate(faults.ModelDrop, 0.05) }},
		{"faults-ge", func(c *Config) {
			c.Faults = faults.FromRate(faults.ModelGilbertElliott, 0.4)
			c.Faults.Recovery = faults.RecoverNextCycle
			c.Faults.MaxRetries = 4
		}},
		{"multi-k2", func(c *Config) { c.Multi = multichannel.Config{Channels: 2} }},
		{"multi-k4-cost", func(c *Config) { c.Multi = multichannel.Config{Channels: 4, SwitchCost: 256} }},
	}
	for _, m := range mutations {
		cfg := smallConfig(dist.Name, 300)
		m.mutate(&cfg)
		vs = append(vs, goldenCase{dist.Name + "/" + m.name, cfg})
	}
	multiOnem := smallConfig(onem.Name, 300)
	multiOnem.Multi = multichannel.Config{Channels: 2}
	vs = append(vs,
		goldenCase{onem.Name + "/multi-k2", multiOnem},
		goldenCase{"cap-loose", capConfig(0.1)},
		goldenCase{"cap-tight", capConfig(0.0001)},
	)
	return vs
}

// goldenCases expands every variant over shards {1, 4} and both engines.
func goldenCases() []goldenCase {
	var cs []goldenCase
	for _, v := range goldenVariants() {
		for _, shards := range []int{1, 4} {
			for _, engine := range []string{EngineEvents, EngineCohort} {
				cfg := v.cfg
				cfg.Shards = shards
				cfg.Engine = engine
				cs = append(cs, goldenCase{fmt.Sprintf("%s/shards=%d/%s", v.name, shards, engine), cfg})
			}
		}
	}
	return cs
}

// formatGolden renders one Result as a golden line. Integer counters and
// Converged are exact; means and tail estimates print at ten significant
// digits, so a fused multiply-add on another architecture cannot move
// them while any real change to a request stream still does.
func formatGolden(name string, r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s requests=%d found=%d notfound=%d rounds=%d converged=%t events=%d",
		name, r.Requests, r.Found, r.NotFound, r.Rounds, r.Converged, r.Events)
	fmt.Fprintf(&b, " restarts=%d wasted=%d unrecovered=%d switches=%d switchwait=%d cycle=%d",
		r.Restarts, r.WastedBytes, r.Unrecovered, r.Switches, r.SwitchWaitBytes, r.CycleBytes)
	fmt.Fprintf(&b, " access=%.10g tuning=%.10g energy=%.10g probes=%.10g",
		r.Access.Mean(), r.Tuning.Mean(), r.Energy.Mean(), r.Probes.Mean())
	fmt.Fprintf(&b, " access_p95=%.10g access_p99=%.10g tuning_p95=%.10g tuning_p99=%.10g",
		r.AccessP95, r.AccessP99, r.TuningP95, r.TuningP99)
	return b.String()
}

// readGolden loads the golden file as a map from case name to line.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		name, _, _ := strings.Cut(line, " ")
		lines[name] = line
	}
	return lines
}

// TestGoldenResults pins the Result of every golden case against
// testdata/results.golden. The file is an absolute record of the request
// streams both engines produce; any change to it is a change to the
// simulator's numbers and must be deliberate (regenerate with -update).
func TestGoldenResults(t *testing.T) {
	cases := goldenCases()
	var got strings.Builder
	for _, c := range cases {
		res, err := RunOne(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got.WriteString(formatGolden(c.name, res))
		got.WriteByte('\n')
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	for _, line := range strings.Split(strings.TrimSuffix(got.String(), "\n"), "\n") {
		name, _, _ := strings.Cut(line, " ")
		if want[name] != line {
			t.Errorf("golden mismatch:\nwant: %s\ngot:  %s", want[name], line)
		}
	}
	if len(want) != len(cases) {
		t.Errorf("golden file has %d cases, the test runs %d; regenerate with -update", len(want), len(cases))
	}
}
