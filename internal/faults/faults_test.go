package faults

import (
	"math"
	"testing"

	"github.com/airindex/airindex/internal/units"
)

func decisions(in *Injector, requests, probes int, size units.ByteCount) []bool {
	var out []bool
	for r := 0; r < requests; r++ {
		in.StartRequest()
		for p := 0; p < probes; p++ {
			out = append(out, in.Corrupt(p, size))
		}
	}
	return out
}

func TestZeroConfigNeverCorrupts(t *testing.T) {
	cfgs := []Config{
		{},
		{Model: ModelIID},
		{Model: ModelDrop},
		{Model: ModelGilbertElliott, GoodToBad: 0.5, BadToGood: 0.5},
	}
	for _, cfg := range cfgs {
		if cfg.Model != ModelNone && !cfg.Enabled() {
			t.Errorf("config %+v should report enabled", cfg)
		}
		in := New(cfg, 42, 0)
		for i, d := range decisions(in, 50, 20, 505) {
			if d {
				t.Fatalf("cfg %+v corrupted read %d at zero rates", cfg, i)
			}
		}
	}
}

func TestInjectorDeterministic(t *testing.T) {
	cfg := FromRate(ModelDrop, 0.1)
	a := decisions(New(cfg, 42, 3), 40, 25, 505)
	b := decisions(New(cfg, 42, 3), 40, 25, 505)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same (cfg, seed, shard) diverged at read %d", i)
		}
	}
	c := decisions(New(cfg, 42, 4), 40, 25, 505)
	diff := 0
	for i := range a {
		if a[i] != c[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("shards 3 and 4 produced identical fault streams; substreams are correlated")
	}
}

// TestRateCoupling: the drop model shares its per-read uniform across
// rates, so the corrupted-read set at a lower rate is a subset of the set
// at any higher rate — the property that makes degradation sweeps
// monotone.
func TestRateCoupling(t *testing.T) {
	lo := decisions(New(FromRate(ModelDrop, 0.02), 7, 0), 100, 10, 505)
	hi := decisions(New(FromRate(ModelDrop, 0.1), 7, 0), 100, 10, 505)
	nLo, nHi := 0, 0
	for i := range lo {
		if lo[i] {
			nLo++
			if !hi[i] {
				t.Fatalf("read %d corrupted at rate 0.02 but clean at 0.1", i)
			}
		}
		if hi[i] {
			nHi++
		}
	}
	if nLo == 0 || nHi <= nLo {
		t.Fatalf("expected 0 < corruptions(0.02)=%d < corruptions(0.1)=%d", nLo, nHi)
	}
}

// TestIIDSizeDerived: under a fixed BER, bigger buckets must be corrupted
// more often than small ones.
func TestIIDSizeDerived(t *testing.T) {
	cfg := FromRate(ModelIID, 0.0001)
	small := decisions(New(cfg, 11, 0), 300, 10, 64)
	large := decisions(New(cfg, 11, 0), 300, 10, 4096)
	count := func(ds []bool) int {
		n := 0
		for _, d := range ds {
			if d {
				n++
			}
		}
		return n
	}
	ns, nl := count(small), count(large)
	if nl <= ns {
		t.Fatalf("BER-derived corruption should grow with bucket size: 64B -> %d, 4096B -> %d", ns, nl)
	}
}

// TestGilbertElliottBursts: with a sticky bad state and ErrBad=1, ErrGood=0,
// corruptions must arrive in runs longer than i.i.d. coin flips would give.
func TestGilbertElliottBursts(t *testing.T) {
	cfg := Config{Model: ModelGilbertElliott, GoodToBad: 0.02, BadToGood: 0.2, ErrBad: 1}
	in := New(cfg, 5, 0)
	in.StartRequest()
	total, corrupted, runs := 20000, 0, 0
	prev := false
	for p := 0; p < total; p++ {
		d := in.Corrupt(p, 505)
		if d {
			corrupted++
			if !prev {
				runs++
			}
		}
		prev = d
	}
	if corrupted == 0 {
		t.Fatal("burst model produced no corruption")
	}
	meanRun := float64(corrupted) / float64(runs)
	// Stationary bad-state dwell time is 1/BadToGood = 5 reads; i.i.d.
	// corruption at the same marginal rate would give runs barely above 1.
	if meanRun < 2 {
		t.Fatalf("mean burst length %.2f; expected clustered losses (>= 2)", meanRun)
	}
}

func TestValidate(t *testing.T) {
	good := []Config{
		{},
		FromRate(ModelIID, 0.001),
		FromRate(ModelGilbertElliott, 0.5),
		FromRate(ModelDrop, 0.1),
		{Model: ModelDrop, DropRate: 0.5, Recovery: RecoverNextCycle, MaxRetries: 8},
	}
	for _, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", cfg, err)
		}
	}
	bad := []Config{
		{Model: ModelIID, BER: 1},
		{Model: ModelIID, BER: -0.1},
		{Model: ModelDrop, DropRate: 1.5},
		{Model: ModelGilbertElliott, GoodToBad: 2},
		{Model: ModelGilbertElliott, ErrBad: -1},
		{Model: ModelKind(99)},
		{Recovery: RecoveryKind(99)},
		{MaxRetries: -1},
	}
	// NaN fails every range check, and ±Inf is out of every range.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad = append(bad,
			Config{Model: ModelIID, BER: v},
			Config{Model: ModelDrop, DropRate: v},
			Config{Model: ModelGilbertElliott, GoodToBad: v},
			Config{Model: ModelGilbertElliott, BadToGood: v},
			Config{Model: ModelGilbertElliott, ErrGood: v},
			Config{Model: ModelGilbertElliott, ErrBad: v},
		)
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", cfg)
		}
	}
}

func TestParseAndString(t *testing.T) {
	for _, k := range []ModelKind{ModelNone, ModelIID, ModelGilbertElliott, ModelDrop} {
		got, err := ParseModel(k.String())
		if err != nil || got != k {
			t.Errorf("ParseModel(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	if _, err := ParseModel("bogus"); err == nil {
		t.Error("ParseModel(bogus) should fail")
	}
	for _, k := range []RecoveryKind{RecoverRestart, RecoverNextCycle} {
		got, err := ParseRecovery(k.String())
		if err != nil || got != k {
			t.Errorf("ParseRecovery(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	if _, err := ParseRecovery("bogus"); err == nil {
		t.Error("ParseRecovery(bogus) should fail")
	}
	if got := ModelKind(99).String(); got != "model(99)" {
		t.Errorf("unknown model String() = %q", got)
	}
	if got := RecoveryKind(99).String(); got != "recovery(99)" {
		t.Errorf("unknown recovery String() = %q", got)
	}
}

func TestFromRateHeadline(t *testing.T) {
	for _, k := range []ModelKind{ModelIID, ModelGilbertElliott, ModelDrop} {
		cfg := FromRate(k, 0.05)
		if cfg.Model != k {
			t.Errorf("FromRate(%v) model = %v", k, cfg.Model)
		}
		if cfg.Rate() != 0.05 {
			t.Errorf("FromRate(%v).Rate() = %v, want 0.05", k, cfg.Rate())
		}
	}
	if cfg := FromRate(ModelNone, 0.5); cfg.Enabled() || cfg.Rate() != 0 {
		t.Errorf("FromRate(ModelNone) should be disabled, got %+v", cfg)
	}
}

func TestMangleCopyFlipsOneBit(t *testing.T) {
	in := New(FromRate(ModelDrop, 0.1), 42, 0)
	in.StartRequest()
	frame := make([]byte, 64)
	for i := range frame {
		frame[i] = byte(i)
	}
	got := in.MangleCopy(3, frame)
	if len(got) != len(frame) {
		t.Fatalf("length changed: %d -> %d", len(frame), len(got))
	}
	diffBits := 0
	for i := range frame {
		x := frame[i] ^ got[i]
		for ; x != 0; x &= x - 1 {
			diffBits++
		}
	}
	if diffBits != 1 {
		t.Fatalf("MangleCopy flipped %d bits, want exactly 1", diffBits)
	}
	again := in.MangleCopy(3, frame)
	for i := range got {
		if got[i] != again[i] {
			t.Fatal("MangleCopy is not deterministic at fixed coordinates")
		}
	}
	if empty := in.MangleCopy(0, nil); len(empty) != 0 {
		t.Fatal("MangleCopy(nil) should return empty")
	}
}
