package stats

import (
	"fmt"
	"math"
	"sort"
)

// Quantile estimates a single quantile online with the P² algorithm (Jain
// & Chlamtac, CACM 1985): five markers track the running quantile without
// storing observations, which keeps per-request result handling O(1) even
// for the testbed's longest runs. Estimates converge to the true quantile
// for stationary inputs; the tests bound the error against exact
// order statistics.
type Quantile struct {
	p       float64
	n       int64
	heights [5]float64 // marker heights
	pos     [5]float64 // actual marker positions (1-based)
	want    [5]float64 // desired marker positions
	grow    [5]float64 // desired position increments per observation
	initial []float64  // first five observations, pre-initialization
}

// NewQuantile returns an estimator for the p-quantile, 0 < p < 1.
func NewQuantile(p float64) (*Quantile, error) {
	if p <= 0 || p >= 1 || math.IsNaN(p) {
		return nil, fmt.Errorf("stats: quantile %v outside (0,1)", p)
	}
	q := &Quantile{p: p}
	q.want = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
	q.grow = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return q, nil
}

// MustQuantile is NewQuantile for static probabilities; it panics on error.
func MustQuantile(p float64) *Quantile {
	q, err := NewQuantile(p)
	if err != nil {
		panic(err)
	}
	return q
}

// N returns the number of observations seen.
func (q *Quantile) N() int64 { return q.n }

// P returns the target probability.
func (q *Quantile) P() float64 { return q.p }

// Add records one observation.
//
//airlint:hotpath
func (q *Quantile) Add(x float64) {
	q.n++
	if q.n <= 5 {
		q.initial = append(q.initial, x) //airlint:allow hotalloc warm-up only: the first five observations per estimator buffer here
		if q.n == 5 {
			sort.Float64s(q.initial)
			for i := 0; i < 5; i++ {
				q.heights[i] = q.initial[i]
				q.pos[i] = float64(i + 1)
			}
			q.initial = nil
		}
		return
	}

	// Find the cell k containing x and clamp the extreme markers.
	var k int
	switch {
	case x < q.heights[0]:
		q.heights[0] = x
		k = 0
	case x >= q.heights[4]:
		q.heights[4] = x
		k = 3
	default:
		k = 3
		for i := 1; i < 5; i++ {
			if x < q.heights[i] {
				k = i - 1
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		q.pos[i]++
	}
	for i := 0; i < 5; i++ {
		q.want[i] += q.grow[i]
	}

	// Adjust the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := q.want[i] - q.pos[i]
		if (d >= 1 && q.pos[i+1]-q.pos[i] > 1) || (d <= -1 && q.pos[i-1]-q.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			h := q.parabolic(i, sign)
			if q.heights[i-1] < h && h < q.heights[i+1] {
				q.heights[i] = h
			} else {
				q.heights[i] = q.linear(i, sign)
			}
			q.pos[i] += sign
		}
	}
}

// AddAll records a batch of observations in slice order — exactly
// equivalent to calling Add on each element. P² marker updates are
// order-sensitive like Welford accumulation, so the engine's
// column-at-a-time folding stays bit-identical to per-request adds.
//
//airlint:hotpath
func (q *Quantile) AddAll(xs []float64) {
	for _, x := range xs {
		q.Add(x)
	}
}

// Merge folds another estimator of the same quantile into q, weighting
// each side by its observation count. The round-sharded engine uses it to
// combine per-shard tail estimators at every wave barrier: the merge is a
// pure function of the two states, so a merged Result is bit-identical
// however the shards were scheduled.
//
// Semantics by state: an empty receiver copies o verbatim (so a
// one-shard merge is exact); a side still buffering its first five
// observations replays them through Add (also exact); two initialized
// estimators combine their five-marker summaries by inverting the
// count-weighted mixture of their piecewise-linear marker CDFs — an
// approximation, like P² itself, whose error the tests bound against
// exact order statistics. o is never modified.
func (q *Quantile) Merge(o *Quantile) {
	if o == nil || o.n == 0 {
		return
	}
	if math.Abs(q.p-o.p) > 1e-12 {
		panic(fmt.Sprintf("stats: merging estimators for different quantiles %v and %v", q.p, o.p))
	}
	if q.n == 0 {
		q.copyFrom(o)
		return
	}
	if o.n < 5 {
		for _, x := range o.initial {
			q.Add(x)
		}
		return
	}
	if q.n < 5 {
		pending := append([]float64(nil), q.initial...)
		q.copyFrom(o)
		for _, x := range pending {
			q.Add(x)
		}
		return
	}
	q.mergeInitialized(o)
}

// copyFrom makes q a deep copy of o.
func (q *Quantile) copyFrom(o *Quantile) {
	*q = *o
	q.initial = append([]float64(nil), o.initial...)
}

// mergeInitialized merges two fully initialized (n >= 5) estimators.
func (q *Quantile) mergeInitialized(o *Quantile) {
	total := q.n + o.n
	// Breakpoints of the mixture CDF: the union of both marker sets.
	xs := make([]float64, 0, 10)
	xs = append(xs, q.heights[:]...)
	xs = append(xs, o.heights[:]...)
	sort.Float64s(xs)
	wq := float64(q.n) / float64(total)
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = wq*markerCDF(&q.heights, &q.pos, q.n, x) + (1-wq)*markerCDF(&o.heights, &o.pos, o.n, x)
	}
	// Re-seat the five markers at their canonical quantiles of the mixture.
	us := [5]float64{0, q.p / 2, q.p, (1 + q.p) / 2, 1}
	var h [5]float64
	for i, u := range us {
		h[i] = invertPiecewise(xs, fs, u)
	}
	for i := 1; i < 5; i++ {
		if h[i] < h[i-1] {
			h[i] = h[i-1]
		}
	}
	q.n = total
	q.heights = h
	// Desired positions after n observations are want_i = 1 + (n-1)·u_i
	// (the closed form of the per-Add increments); actual positions snap
	// to the nearest integers kept strictly increasing within [1, n].
	for i, u := range us {
		q.want[i] = 1 + float64(total-1)*u
	}
	q.pos[0] = 1
	q.pos[4] = float64(total)
	for i := 1; i <= 3; i++ {
		p := math.Round(q.want[i])
		if p < q.pos[i-1]+1 {
			p = q.pos[i-1] + 1
		}
		if hi := float64(total) - float64(4-i); p > hi {
			p = hi
		}
		q.pos[i] = p
	}
	q.initial = nil
}

// markerCDF evaluates the piecewise-linear CDF through the five marker
// points (heights[i], (pos[i]-1)/(n-1)) at x, clamped to [0, 1].
func markerCDF(heights, pos *[5]float64, n int64, x float64) float64 {
	if x <= heights[0] {
		return 0
	}
	if x >= heights[4] {
		return 1
	}
	u := func(i int) float64 { return (pos[i] - 1) / float64(n-1) }
	for i := 1; i < 5; i++ {
		if x < heights[i] {
			lo, hi := heights[i-1], heights[i]
			if hi-lo <= 0 {
				return u(i)
			}
			return u(i-1) + (x-lo)/(hi-lo)*(u(i)-u(i-1))
		}
	}
	return 1
}

// invertPiecewise returns the leftmost x with F(x) >= target for the
// nondecreasing piecewise-linear function through (xs[i], fs[i]).
func invertPiecewise(xs, fs []float64, target float64) float64 {
	if target <= fs[0] {
		return xs[0]
	}
	for i := 1; i < len(fs); i++ {
		if fs[i] >= target {
			lo, hi := fs[i-1], fs[i]
			if hi-lo <= 0 {
				return xs[i]
			}
			return xs[i-1] + (target-lo)/(hi-lo)*(xs[i]-xs[i-1])
		}
	}
	return xs[len(xs)-1]
}

// parabolic is the P² piecewise-parabolic prediction for marker i.
func (q *Quantile) parabolic(i int, d float64) float64 {
	return q.heights[i] + d/(q.pos[i+1]-q.pos[i-1])*
		((q.pos[i]-q.pos[i-1]+d)*(q.heights[i+1]-q.heights[i])/(q.pos[i+1]-q.pos[i])+
			(q.pos[i+1]-q.pos[i]-d)*(q.heights[i]-q.heights[i-1])/(q.pos[i]-q.pos[i-1]))
}

// linear is the fallback linear prediction.
func (q *Quantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return q.heights[i] + d*(q.heights[j]-q.heights[i])/(q.pos[j]-q.pos[i])
}

// Value returns the current estimate. With fewer than five observations it
// falls back to the exact small-sample quantile.
func (q *Quantile) Value() float64 {
	if q.n == 0 {
		return 0
	}
	if q.n < 5 {
		tmp := append([]float64(nil), q.initial...)
		sort.Float64s(tmp)
		idx := int(q.p * float64(len(tmp)))
		if idx >= len(tmp) {
			idx = len(tmp) - 1
		}
		return tmp[idx]
	}
	return q.heights[2]
}
