// Package airindex's micro-benchmarks time the simulator's hot paths:
// per-query protocol walks, broadcast construction and the testbed's
// statistics. Whole experiments are timed by the committed benchmark
// (bench/, BENCHMARK.json) and by cmd/benchpair, which runs every
// scenario script against a base revision.
package airindex

import (
	"testing"

	"github.com/airindex/airindex/internal/access"
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
)

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
