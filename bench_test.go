// Package airindex's benchmark suite regenerates every table and figure of
// the paper (one Benchmark per artifact, in fast mode — run cmd/airql
// without -fast for the full Table 1 settings) and measures the hot paths
// of the simulator itself.
//
// The experiment benchmarks are macro-benchmarks: a single iteration runs
// a whole embedded scenario script, so expect them to self-limit at b.N == 1. Custom
// metrics report the headline values the paper plots.
package airindex

import (
	"testing"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/airql"
	"github.com/airindex/airindex/internal/core"
	"github.com/airindex/airindex/internal/datagen"
	"github.com/airindex/airindex/internal/schemes/bdisk"
	"github.com/airindex/airindex/internal/schemes/dist"
	"github.com/airindex/airindex/internal/schemes/flat"
	"github.com/airindex/airindex/internal/schemes/hashing"
	"github.com/airindex/airindex/internal/schemes/hybrid"
	"github.com/airindex/airindex/internal/schemes/onem"
	"github.com/airindex/airindex/internal/schemes/signature"
	"github.com/airindex/airindex/internal/sim"
	"github.com/airindex/airindex/internal/stats"
	"github.com/airindex/airindex/scenarios"
)

var benchOpt = airql.Options{Fast: true}

// runExperiment compiles one embedded scenario script, executes it once
// per iteration, and reports the last row of the selected table's column
// as a custom metric.
func runExperiment(b *testing.B, scenario, tableID, column string) {
	b.Helper()
	file := scenario + ".airql"
	src, err := scenarios.Source(file)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := airql.Compile(file, src)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tables, err := airql.Execute(prog, benchOpt)
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range tables {
			if t.ID != tableID {
				continue
			}
			if col, ok := t.Column(column); ok && len(col) > 0 {
				b.ReportMetric(col[len(col)-1], "bytes_at_max_x")
			}
			if len(t.Rows) == 0 {
				b.Fatalf("%s produced no rows", tableID)
			}
		}
	}
}

func BenchmarkFig4aAccessVsRecords(b *testing.B) { runExperiment(b, "fig4", "fig4a", "flat (S)") }
func BenchmarkFig4bTuningVsRecords(b *testing.B) { runExperiment(b, "fig4", "fig4b", "hashing (S)") }
func BenchmarkFig5aAccessVsAvailability(b *testing.B) {
	runExperiment(b, "fig5", "fig5a", "distributed")
}
func BenchmarkFig5bTuningVsAvailability(b *testing.B) {
	runExperiment(b, "fig5", "fig5b", "distributed")
}
func BenchmarkFig6aAccessVsRatio(b *testing.B) { runExperiment(b, "fig6", "fig6a", "distributed") }
func BenchmarkFig6bTuningVsRatio(b *testing.B) { runExperiment(b, "fig6", "fig6b", "distributed") }
func BenchmarkAblationReplicationDepth(b *testing.B) {
	runExperiment(b, "ablate-r", "ablate-r", "access (S)")
}
func BenchmarkAblationIndexReplication(b *testing.B) {
	runExperiment(b, "ablate-m", "ablate-m", "access (S)")
}
func BenchmarkAblationSignatureLength(b *testing.B) {
	runExperiment(b, "ablate-sig", "ablate-sig", "tuning (S)")
}
func BenchmarkAblationHashAllocation(b *testing.B) {
	runExperiment(b, "ablate-hash", "ablate-hash", "tuning (S)")
}
func BenchmarkAblationErrorRate(b *testing.B) {
	runExperiment(b, "ablate-errors", "ablate-errors", "distributed tuning")
}
func BenchmarkExtSignatureFamily(b *testing.B) {
	runExperiment(b, "ext-signatures", "ext-signatures", "hybrid tuning")
}
func BenchmarkExtBroadcastDisks(b *testing.B) {
	runExperiment(b, "ext-bdisk", "ext-bdisk", "bdisk/flat ratio")
}
func BenchmarkExtMultiAttribute(b *testing.B) {
	runExperiment(b, "ext-multiattr", "ext-multiattr", "tuning ratio")
}

// --- micro-benchmarks: per-query protocol walks -------------------------

const benchRecords = 5000

func benchDataset(b *testing.B) *datagen.Dataset {
	b.Helper()
	ds, err := datagen.Generate(datagen.Default(benchRecords))
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// walkBench drives one query per iteration with rotating keys and arrival
// times, measuring the client protocol and channel arithmetic.
func walkBench(b *testing.B, bc access.Broadcast, ds *datagen.Dataset) {
	b.Helper()
	rng := sim.NewRNG(1)
	cycle := int64(bc.Channel().CycleLen())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := ds.KeyAt(rng.Intn(ds.Len()))
		arrival := sim.Time(rng.Int63n(cycle))
		res, err := access.Walk(bc.Channel(), bc.NewClient(key), arrival, 0)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Found {
			b.Fatal("query failed")
		}
	}
}

func BenchmarkWalkFlat(b *testing.B) {
	ds := benchDataset(b)
	bc, err := flat.Build(ds)
	if err != nil {
		b.Fatal(err)
	}
	walkBench(b, bc, ds)
}

func BenchmarkWalkOneM(b *testing.B) {
	ds := benchDataset(b)
	bc, err := onem.Build(ds, onem.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	walkBench(b, bc, ds)
}

func BenchmarkWalkDistributed(b *testing.B) {
	ds := benchDataset(b)
	bc, err := dist.Build(ds, dist.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	walkBench(b, bc, ds)
}

func BenchmarkWalkHashing(b *testing.B) {
	ds := benchDataset(b)
	bc, err := hashing.Build(ds, hashing.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	walkBench(b, bc, ds)
}

func BenchmarkWalkSignature(b *testing.B) {
	ds := benchDataset(b)
	bc, err := signature.Build(ds, signature.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	walkBench(b, bc, ds)
}

func BenchmarkWalkHybrid(b *testing.B) {
	ds := benchDataset(b)
	bc, err := hybrid.Build(ds, hybrid.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	walkBench(b, bc, ds)
}

func BenchmarkWalkBroadcastDisks(b *testing.B) {
	ds := benchDataset(b)
	bc, err := bdisk.Build(ds, bdisk.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	walkBench(b, bc, ds)
}

// --- micro-benchmarks: broadcast construction ---------------------------

func BenchmarkBuildDistributed(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dist.Build(ds, dist.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildHashing(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hashing.Build(ds, hashing.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildSignature(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := signature.Build(ds, signature.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks: testbed internals --------------------------------

func BenchmarkSimulationRound(b *testing.B) {
	cfg := core.DefaultConfig("distributed", 2000)
	cfg.RoundSize = 250
	cfg.MinRequests = 250
	cfg.MaxRequests = 250
	cfg.Accuracy = 0.5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunOne(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTQuantile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stats.TQuantile(0.995, float64(499+i%10))
	}
}

func BenchmarkSignatureGeneration(b *testing.B) {
	fields := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma"), []byte("delta"), []byte("epsilon")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		signature.RecordSig(fields, 16, 8)
	}
}
