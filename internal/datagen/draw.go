package datagen

import (
	"math/bits"
	"math/rand"
)

// math/rand's source is an additive lagged-Fibonacci generator: once 607
// outputs exist, the n-th Uint64 output is y[n] = y[n-607] + y[n-273]
// (mod 2⁶⁴).
const (
	lagLong  = 607
	lagShort = 273
)

// drawer reproduces rand.New(rand.NewSource(seed)).Intn draw for draw
// without an interface call per draw. It takes the source's first 607
// outputs, so the seed mapping stays math/rand's own, and extends them one
// block of 607 at a time by the recurrence above.
type drawer struct {
	pos int
	y   [lagLong]uint64
}

func newDrawer(seed int64) *drawer {
	src := rand.NewSource(seed).(rand.Source64)
	d := new(drawer)
	for i := range d.y {
		d.y[i] = src.Uint64()
	}
	return d
}

// refill replaces the block y[n..n+607) with y[n+607..n+1214): the first
// 273 new outputs read the old block, the rest the new outputs before them.
func (d *drawer) refill() {
	y := &d.y
	for i := 0; i < lagShort; i++ {
		y[i] += y[i+lagLong-lagShort]
	}
	for i := lagShort; i < lagLong; i++ {
		y[i] += y[i-lagShort]
	}
	d.pos = 0
}

// int31 is rand.(*Rand).Int31 of the output y: bits 32..62.
func int31(y uint64) uint32 { return uint32(y << 1 >> 33) }

// modulus is an Intn argument with Int31n's rejection bound and the
// multiplier of Lemire's direct remainder, ⌈2⁶⁴/n⌉, precomputed.
type modulus struct {
	n, max uint32
	m      uint64
}

// newModulus prepares Intn(n) for 0 < n < 2³¹. For a power of two the
// bound rejects nothing and the remainder equals Int31n's mask.
func newModulus(n int) modulus {
	u := uint32(n)
	return modulus{n: u, max: 1<<31 - 1 - (1<<31)%u, m: ^uint64(0)/uint64(u) + 1}
}

// rem is v % mod.n by Lemire's direct remainder, exact for 32-bit v and n.
func (mod *modulus) rem(v uint32) int {
	hi, _ := bits.Mul64(mod.m*uint64(v), uint64(mod.n))
	return int(hi)
}

// next is intn's common case: an output already in the block that
// Int31n's bound accepts. It reports false, drawing nothing, when the
// block is used up or the output is rejected; intnSlow then takes over.
func (d *drawer) next(mod *modulus) (int, bool) {
	i := d.pos
	if i >= lagLong {
		return 0, false
	}
	v := int31(d.y[i])
	if v > mod.max {
		return 0, false
	}
	d.pos = i + 1
	return mod.rem(v), true
}

// intn is rand.(*Rand).Intn(mod.n).
func (d *drawer) intn(mod *modulus) int {
	if v, ok := d.next(mod); ok {
		return v
	}
	return d.intnSlow(mod)
}

// intnSlow is intn with the refill and Int31n's rejection loop, kept out
// of line so that next stays small enough to inline.
//
//go:noinline
func (d *drawer) intnSlow(mod *modulus) int {
	for {
		if d.pos == lagLong {
			d.refill()
		}
		v := int31(d.y[d.pos])
		d.pos++
		if v <= mod.max {
			return mod.rem(v)
		}
	}
}
