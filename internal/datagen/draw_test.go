package datagen

import (
	"math"
	"math/rand"
	"testing"
)

// TestDrawMatchesMathRand holds the drawer to the stream it replays:
// rand.New(rand.NewSource(seed)).Intn, draw for draw, over 2M draws per
// seed. The arguments cycle through every one Generate uses plus one where
// Int31n rejects about half the outputs; 607 and the cycle length are
// coprime, so every argument meets every position of a block. A second
// pass puts every draw at Int31n's rejection bound. Seeds 0 and 1<<31-1
// are the ones NewSource maps specially.
func TestDrawMatchesMathRand(t *testing.T) {
	ns := []int{3, 6, 8, 10, 25, 1000, 1<<30 + 1}
	mods := make([]modulus, len(ns))
	for i, n := range ns {
		mods[i] = newModulus(n)
	}
	const draws = 2_000_000
	for _, seed := range []int64{0, 1, -1, 42, math.MinInt64, math.MaxInt64, 1<<31 - 1} {
		rng := rand.New(rand.NewSource(seed))
		d := newDrawer(seed)
		for i := 0; i < draws; i++ {
			k := i % len(ns)
			if got, want := d.intn(&mods[k]), rng.Intn(ns[k]); got != want {
				t.Fatalf("seed %d, draw %d: Intn(%d) = %d, want %d", seed, i, ns[k], got, want)
			}
		}
		// The second pass: for n above 2³⁰ Int31n's bound is n-1, so when
		// the next output's Int31 is v, Intn(v) rejects it and Intn(v+1)
		// accepts it. boundN aims at the next output or, behind a rejected
		// one, at the output after it, which intnSlow reads.
		for i := 0; i < draws/10; i++ {
			n := boundN(d, i)
			if n == 0 {
				n = ns[i%len(ns)]
			}
			mod := newModulus(n)
			if got, want := d.intn(&mod), rng.Intn(n); got != want {
				t.Fatalf("seed %d, bound draw %d: Intn(%d) = %d, want %d", seed, i, n, got, want)
			}
		}
	}
}

// boundN returns an Intn argument whose bound lies at an output the drawer
// is about to read, or 0 when the block's next outputs allow none.
func boundN(d *drawer, i int) int {
	if d.pos+1 >= lagLong {
		return 0
	}
	v1, v2 := int(int31(d.y[d.pos])), int(int31(d.y[d.pos+1]))
	step := i / 2 % 2
	switch {
	case i%2 == 0 && v1 > 1<<30 && v1+step < 1<<31:
		return v1 + step
	case i%2 == 1 && v2 > 1<<30 && v1 > v2+1:
		return v2 + step
	}
	return 0
}

// fuzzN maps a choice byte to an Intn argument: the low half of the bytes
// to 1..128, the high half to values above 2³⁰, where Int31n rejects up to
// half the outputs.
func fuzzN(b byte) int {
	if b < 0x80 {
		return int(b) + 1
	}
	return 1<<30 + int(b-0x80)<<23 + 1
}

// FuzzDraw holds the drawer to math/rand for any seed and any sequence of
// arguments. The choice string is cycled over three blocks of draws, so
// every input crosses two refills. The seed corpus is in testdata/fuzz.
func FuzzDraw(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, choice []byte) {
		if len(choice) == 0 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		d := newDrawer(seed)
		for i := 0; i < 3*lagLong; i++ {
			n := fuzzN(choice[i%len(choice)])
			mod := newModulus(n)
			if got, want := d.intn(&mod), rng.Intn(n); got != want {
				t.Fatalf("seed %d, draw %d: Intn(%d) = %d, want %d", seed, i, n, got, want)
			}
		}
	})
}
