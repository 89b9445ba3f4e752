package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestExponentialRoundsUp pins the documented rounding: interarrival
// draws are rounded *up* to at least one time unit, never truncated.
// Truncation biased the mean ~0.5 bytes low; this test fails on that code.
func TestExponentialRoundsUp(t *testing.T) {
	const seed, mean = 123, 700.0
	g := NewRNG(seed)
	ref := rand.New(rand.NewSource(seed))
	sawFraction := false
	for i := 0; i < 5000; i++ {
		raw := ref.ExpFloat64() * mean
		want := Time(math.Ceil(raw))
		if raw <= 1 {
			want = 1
		}
		got := g.Exponential(mean)
		if got != want {
			t.Fatalf("draw %d: Exponential = %d, want ceil(%v) = %d", i, got, raw, want)
		}
		if raw > 1 && raw != math.Trunc(raw) && Time(raw) != want {
			sawFraction = true
		}
	}
	if !sawFraction {
		t.Fatal("no fractional draw exercised the ceil/truncate distinction")
	}
}

// TestExponentialOverflowClamp pins the overflow clamp: a huge mean must
// not wrap the byte-clock.
func TestExponentialOverflowClamp(t *testing.T) {
	g := NewRNG(9)
	for i := 0; i < 1000; i++ {
		d := g.Exponential(math.MaxFloat64)
		if d < 1 || d > Time(math.MaxInt64/2) {
			t.Fatalf("clamped draw %d outside [1, MaxInt64/2]", d)
		}
	}
}

func TestSplitMixDeterministic(t *testing.T) {
	for shard := 0; shard < 8; shard++ {
		if SplitMix(42, shard) != SplitMix(42, shard) {
			t.Fatal("SplitMix not a pure function")
		}
	}
	a, b := NewShardRNG(42, 3), NewShardRNG(42, 3)
	for i := 0; i < 100; i++ {
		if a.Intn(1<<30) != b.Intn(1<<30) {
			t.Fatal("same (seed, shard) produced diverging substreams")
		}
	}
}

// TestSplitMixSubstreamsDistinct checks that substreams of one base seed
// are pairwise distinct, distinct from the base stream, and that shard 0
// is not the identity (splitmix advances the counter even for shard 0).
func TestSplitMixSubstreamsDistinct(t *testing.T) {
	const seed = 42
	seen := map[int64]int{seed: -1}
	for shard := 0; shard < 64; shard++ {
		sub := SplitMix(seed, shard)
		if prev, dup := seen[sub]; dup {
			t.Fatalf("substream seed collision: shard %d and %d both map to %d", shard, prev, sub)
		}
		seen[sub] = shard
	}
	base, sub := NewRNG(seed), NewShardRNG(seed, 0)
	same := 0
	for i := 0; i < 64; i++ {
		if base.Intn(1<<30) == sub.Intn(1<<30) {
			same++
		}
	}
	if same > 8 {
		t.Fatalf("shard-0 substream tracks the base stream (%d/64 equal draws)", same)
	}
}

// TestStreamSeedLabeledSubstreams: labeled substreams are pure functions
// of (seed, shard, label), distinct per label, and decorrelated from the
// unlabeled arrival substream of the same (seed, shard).
func TestStreamSeedLabeledSubstreams(t *testing.T) {
	if StreamSeed(42, 3, "faults") != StreamSeed(42, 3, "faults") {
		t.Fatal("StreamSeed not a pure function")
	}
	seen := map[int64]string{}
	for _, label := range []string{"", "faults", "faultt", "arrivals"} {
		for shard := 0; shard < 16; shard++ {
			s := StreamSeed(42, shard, label)
			if prev, dup := seen[s]; dup {
				t.Fatalf("labeled substream collision: %q/%d vs %s", label, shard, prev)
			}
			seen[s] = fmt.Sprintf("%q/%d", label, shard)
			if s == SplitMix(42, shard) && label != "" {
				t.Fatalf("label %q shard %d collides with the arrival substream", label, shard)
			}
		}
	}
	arrival, labeled := NewShardRNG(42, 0), NewRNG(StreamSeed(42, 0, "faults"))
	same := 0
	for i := 0; i < 64; i++ {
		if arrival.Intn(1<<30) == labeled.Intn(1<<30) {
			same++
		}
	}
	if same > 8 {
		t.Fatalf("faults substream tracks the arrival stream (%d/64 equal draws)", same)
	}
}

// TestSplitMixSubstreamMeansUnbiased is a coarse statistical check that a
// substream still draws a correct exponential distribution.
func TestSplitMixSubstreamMeansUnbiased(t *testing.T) {
	const mean = 1000.0
	for shard := 0; shard < 4; shard++ {
		g := NewShardRNG(7, shard)
		var sum float64
		const n = 100000
		for i := 0; i < n; i++ {
			sum += float64(g.Exponential(mean))
		}
		if got := sum / n; math.Abs(got-mean)/mean > 0.03 {
			t.Errorf("shard %d: sample mean %.1f, want within 3%% of %.1f", shard, got, mean)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	g := NewRNG(42)
	const mean = 1000.0
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(g.Exponential(mean))
	}
	got := sum / n
	if math.Abs(got-mean)/mean > 0.02 {
		t.Fatalf("exponential sample mean %.1f, want within 2%% of %.1f", got, mean)
	}
}

func TestExponentialAlwaysPositive(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 10000; i++ {
		if d := g.Exponential(0.001); d < 1 {
			t.Fatalf("Exponential returned %d < 1", d)
		}
	}
	if d := g.Exponential(-5); d != 1 {
		t.Fatalf("Exponential with nonpositive mean = %d, want 1", d)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 1000; i++ {
		if a.Exponential(500) != b.Exponential(500) || a.Intn(1000) != b.Intn(1000) {
			t.Fatal("same seed produced diverging streams")
		}
	}
}
