// Package stats provides the streaming summary statistics used by the
// experiment harness to aggregate metrics across repeated simulation runs.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates observations with Welford's online algorithm, giving
// numerically stable mean and variance without retaining samples.
type Summary struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
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

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean, 0 for an empty summary.
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest observation, 0 for an empty summary.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, 0 for an empty summary.
func (s *Summary) Max() float64 { return s.max }

// Variance returns the unbiased sample variance, 0 for n < 2.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean.
func (s *Summary) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// CI95 returns the half-width of a normal-approximation 95% confidence
// interval around the mean.
func (s *Summary) CI95() float64 { return 1.96 * s.StdErr() }

// String formats the summary as "mean ± ci95 (n=N)".
func (s *Summary) String() string {
	return fmt.Sprintf("%.3f ± %.3f (n=%d)", s.Mean(), s.CI95(), s.n)
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice and
// does not modify xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Sum returns the total of xs.
func Sum(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum
}
