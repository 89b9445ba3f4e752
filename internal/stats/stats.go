// Package stats implements the statistics the testbed's accuracy control
// needs: online mean/variance accumulation (Welford), Student-t quantiles
// computed from scratch (stdlib only), and the confidence-interval
// half-width test the paper uses to decide when a simulation may stop.
//
// The paper (§4.1, footnote 1) defines confidence accuracy as H/Y where H
// is the confidence-interval half-width H = t(α/2; N−1) · σ/√N and Y is the
// sample mean; a simulation run continues until H/Y falls at or below the
// requested accuracy at the requested confidence level.
package stats

import (
	"fmt"
	"math"
)

// Sample accumulates observations with Welford's online algorithm, which is
// numerically stable for the long (>50,000 observation) runs the testbed
// performs.
type Sample struct {
	n    int64
	mean float64
	m2   float64 // sum of squared deviations from the running mean
	min  float64
	max  float64
}

// Add records one observation.
//
//airlint:hotpath
func (s *Sample) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// AddAll records a batch of observations in slice order. It is exactly
// equivalent to calling Add on each element — Welford accumulation is
// order-sensitive, so the engine's batched rounds hand whole result
// columns here instead of interleaving per-request Add calls, and the
// bits still match a one-request-at-a-time fold.
//
//airlint:hotpath
func (s *Sample) AddAll(xs []float64) {
	for _, x := range xs {
		s.Add(x)
	}
}

// Merge folds another sample into s (parallel Welford combination).
func (s *Sample) Merge(o *Sample) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *o
		return
	}
	delta := o.mean - s.mean
	total := s.n + o.n
	s.mean += delta * float64(o.n) / float64(total)
	s.m2 += o.m2 + delta*delta*float64(s.n)*float64(o.n)/float64(total)
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.n = total
}

// N returns the number of observations.
func (s *Sample) N() int64 { return s.n }

// Mean returns the sample mean (0 for an empty sample).
func (s *Sample) Mean() float64 { return s.mean }

// Min returns the smallest observation (0 for an empty sample).
func (s *Sample) Min() float64 { return s.min }

// Max returns the largest observation (0 for an empty sample).
func (s *Sample) Max() float64 { return s.max }

// Variance returns the unbiased sample variance (0 when n < 2).
func (s *Sample) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean, σ/√N.
func (s *Sample) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// HalfWidth returns the confidence-interval half-width
// H = t(α/2; N−1) · σ/√N at the given confidence level (e.g. 0.99).
// It returns 0 when fewer than two observations exist.
func (s *Sample) HalfWidth(confidence float64) float64 {
	if s.n < 2 {
		return 0
	}
	t := TQuantile(1-(1-confidence)/2, float64(s.n-1))
	return t * s.StdErr()
}

// Accuracy returns H/|Y|, the paper's confidence accuracy, and whether it is
// defined (a zero mean makes the ratio meaningless).
func (s *Sample) Accuracy(confidence float64) (float64, bool) {
	//airlint:allow floatcompare exact zero guards an undefined ratio; any nonzero mean, however small, defines it
	if s.n < 2 || s.mean == 0 {
		return 0, false
	}
	return s.HalfWidth(confidence) / math.Abs(s.mean), true
}

// Converged reports whether the sample meets the paper's stopping rule:
// confidence accuracy H/Y at the given confidence level is at or below acc.
// A degenerate all-equal sample (H == 0) counts as converged.
func (s *Sample) Converged(confidence, acc float64) bool {
	if s.n < 2 {
		return false
	}
	//airlint:allow floatcompare m2 is exactly 0 iff every observation is identical (Welford never rounds to 0)
	if s.m2 == 0 {
		return true
	}
	a, ok := s.Accuracy(confidence)
	return ok && a <= acc
}

// String summarizes the sample for logs.
func (s *Sample) String() string {
	return fmt.Sprintf("n=%d mean=%.2f sd=%.2f min=%.0f max=%.0f", s.n, s.Mean(), s.StdDev(), s.min, s.max)
}
