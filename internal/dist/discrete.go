// Package dist implements the finite probability distributions the paper
// attaches to every AR request: a distribution over a finite set DR of
// possible data rates, where each rate rho carries probability pi_{j,rho}
// and a demand-independent reward RD_{j,rho} (Section III-C).
//
// The offloading LPs consume expectations and truncated expectations
// E[min(rho, c)] of these distributions; the simulator samples realized
// rates from them.
package dist

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
)

// Tolerance for probability-mass validation.
const probEps = 1e-9

// Errors returned by distribution constructors.
var (
	ErrEmpty    = errors.New("dist: empty distribution")
	ErrBadProb  = errors.New("dist: probabilities must be non-negative and sum to 1")
	ErrBadValue = errors.New("dist: values must be finite and non-negative")
)

// Outcome is one point of a (data rate, reward) distribution.
type Outcome struct {
	// Rate is the data rate rho in MB/s.
	Rate float64
	// Prob is pi_{j,rho}, the probability of this rate.
	Prob float64
	// Reward is RD_{j,rho}, the provider reward in dollars if the request
	// realizes this rate and is fully served.
	Reward float64
}

// RateReward is the per-request distribution over (rate, reward) pairs.
// Outcomes are kept sorted by increasing rate. The zero value is invalid;
// use NewRateReward.
type RateReward struct {
	outcomes []Outcome
	// cum[i] is the cumulative probability through outcome i, used for
	// inverse-transform sampling.
	cum []float64
}

// Mass is NewRateReward's validity rule, applied one outcome at a time and
// in the caller's order: every value finite and non-negative, at least one
// outcome with positive probability, probabilities summing to 1. A caller
// that holds outcomes in another shape (serve's wire specs) runs the same
// rule through it without building a distribution, and is then certain
// NewRateReward accepts the same list.
type Mass struct {
	n     int // outcomes with positive probability
	total float64
}

// Add checks one outcome's values and counts its probability.
func (m *Mass) Add(o Outcome) error {
	if o.Prob < 0 || math.IsNaN(o.Prob) || math.IsInf(o.Prob, 0) {
		return fmt.Errorf("%w: prob %v", ErrBadProb, o.Prob)
	}
	if o.Rate < 0 || math.IsNaN(o.Rate) || math.IsInf(o.Rate, 0) ||
		o.Reward < 0 || math.IsNaN(o.Reward) || math.IsInf(o.Reward, 0) {
		return fmt.Errorf("%w: rate %v reward %v", ErrBadValue, o.Rate, o.Reward)
	}
	if o.Prob > 0 {
		m.n++
		m.total += o.Prob
	}
	return nil
}

// Check judges the outcomes added so far as a whole.
func (m *Mass) Check() error {
	if m.n == 0 {
		return ErrEmpty
	}
	if math.Abs(m.total-1) > probEps {
		return fmt.Errorf("%w: total mass %v", ErrBadProb, m.total)
	}
	return nil
}

// NewRateReward validates and constructs a distribution. The outcomes are
// copied once and normalized (see Normalize): sorted by rate, zero
// probabilities dropped and duplicate rates merged.
func NewRateReward(outcomes []Outcome) (*RateReward, error) {
	if err := checkMass(outcomes); err != nil {
		return nil, err
	}
	os := Normalize(append(make([]Outcome, 0, len(outcomes)), outcomes...))
	n := len(os)
	return newRateReward(new(RateReward), os[:n:n], make([]float64, n)), nil
}

// checkMass runs the Mass rule over a whole list.
func checkMass(outcomes []Outcome) error {
	var mass Mass
	for _, o := range outcomes {
		if err := mass.Add(o); err != nil {
			return err
		}
	}
	return mass.Check()
}

// newRateReward fills d with a normalized support and the storage for its
// cumulative probabilities, one per outcome.
func newRateReward(d *RateReward, support []Outcome, cum []float64) *RateReward {
	*d = RateReward{outcomes: support, cum: cum}
	c := 0.0
	for i, o := range support {
		c += o.Prob
		cum[i] = c
	}
	cum[len(cum)-1] = 1 // guard against float drift
	return d
}

// Normalize puts a list of outcomes into the form a RateReward holds, in
// place: sorted by increasing rate (a list already strictly increasing in
// rate is left as it is), zero-probability outcomes dropped, and duplicate
// rates merged (probabilities added, rewards probability-weighted). It
// returns the merged prefix of outcomes. NewRateReward's support is
// Normalize of a copy of its argument, so a caller that needs only a figure
// of the distribution can work it out in a buffer of its own.
func Normalize(outcomes []Outcome) []Outcome {
	if !strictlyIncreasing(outcomes) {
		slices.SortFunc(outcomes, func(a, b Outcome) int { return cmp.Compare(a.Rate, b.Rate) })
	}
	merged := outcomes[:0]
	for _, o := range outcomes {
		if o.Prob == 0 {
			continue
		}
		if n := len(merged); n > 0 && merged[n-1].Rate == o.Rate {
			p := merged[n-1].Prob + o.Prob
			merged[n-1].Reward = (merged[n-1].Reward*merged[n-1].Prob + o.Reward*o.Prob) / p
			merged[n-1].Prob = p
			continue
		}
		merged = append(merged, o)
	}
	return merged
}

// ExpectedRateOf returns E[rho] over a support Normalize returned, summed
// as (*RateReward).ExpectedRate sums it: for any list NewRateReward
// accepts, ExpectedRateOf(Normalize(copy of the list)) equals
// NewRateReward(list).ExpectedRate() bit for bit.
func ExpectedRateOf(support []Outcome) float64 {
	e := 0.0
	for _, o := range support {
		e += o.Prob * o.Rate
	}
	return e
}

// strictlyIncreasing reports whether every outcome's rate exceeds the one
// before it: the one order in which sorting by rate moves nothing.
func strictlyIncreasing(os []Outcome) bool {
	for i := 1; i < len(os); i++ {
		if os[i].Rate <= os[i-1].Rate {
			return false
		}
	}
	return true
}

// Arena builds distributions as NewRateReward does, but carves each one's
// struct, outcomes and cumulative probabilities from chunks shared with
// the distributions built before and after it, instead of making three
// allocations. A chunk is freed once no distribution carved from it is
// reachable, so chunks are sized for 16 five-outcome distributions: a
// live distribution pins the storage of a few neighbours, not of a
// hundred. The zero Arena is ready to use; it is not safe for concurrent
// use.
type Arena struct {
	dists []RateReward
	outs  []Outcome
	cums  []float64
}

// Chunk lengths, each filling its size class: 16 distributions (768 B),
// 85 outcomes (2 040 of 2 048 B) and 80 cumulative probabilities (640 B).
const (
	arenaDists    = 16
	arenaOutcomes = 85
	arenaCums     = 80
)

// New is NewRateReward with the storage carved from the arena.
func (a *Arena) New(outcomes []Outcome) (*RateReward, error) {
	if err := checkMass(outcomes); err != nil {
		return nil, err
	}
	os := Normalize(append(carve(&a.outs, len(outcomes), arenaOutcomes), outcomes...))
	n := len(os)
	return newRateReward(&carve(&a.dists, 1, arenaDists)[:1][0], os[:n:n], carve(&a.cums, n, arenaCums)[:n]), nil
}

// carve takes room for n values from the front of *chunk, starting a new
// chunk of max(n, size) values when fewer are left, and returns it empty,
// with capacity n.
func carve[T any](chunk *[]T, n, size int) []T {
	if len(*chunk) < n {
		*chunk = make([]T, max(n, size))
	}
	s := (*chunk)[:0:n]
	*chunk = (*chunk)[n:]
	return s
}

// Outcomes returns a copy of the support, sorted by increasing rate.
func (d *RateReward) Outcomes() []Outcome {
	out := make([]Outcome, len(d.outcomes))
	copy(out, d.outcomes)
	return out
}

// Len returns the support size |DR| of the distribution.
func (d *RateReward) Len() int { return len(d.outcomes) }

// OutcomeAt returns outcome i of the sorted support without copying the
// whole slice. The incremental scheduler's per-component signatures read
// every outcome each slot, so this accessor keeps that path allocation-free
// (Outcomes() copies).
func (d *RateReward) OutcomeAt(i int) Outcome { return d.outcomes[i] }

// MinRate returns the smallest rate in the support.
func (d *RateReward) MinRate() float64 { return d.outcomes[0].Rate }

// MaxRate returns the largest rate in the support.
func (d *RateReward) MaxRate() float64 { return d.outcomes[len(d.outcomes)-1].Rate }

// ExpectedRate returns E[rho].
func (d *RateReward) ExpectedRate() float64 { return ExpectedRateOf(d.outcomes) }

// ExpectedReward returns E[RD] = sum_rho pi_rho * RD_rho, the
// demand-independent expected reward of serving the request.
func (d *RateReward) ExpectedReward() float64 {
	e := 0.0
	for _, o := range d.outcomes {
		e += o.Prob * o.Reward
	}
	return e
}

// ExpectedTruncatedRate returns E[min(rho, cap)], the truncated expectation
// used in LP constraint (10) and in Lemma 2's occupancy bound. Rates are
// finite and non-negative and cap is positive here, where the builtin min
// and math.Min agree.
func (d *RateReward) ExpectedTruncatedRate(cap float64) float64 {
	if cap <= 0 {
		return 0
	}
	e := 0.0
	for _, o := range d.outcomes {
		e += o.Prob * min(o.Rate, cap)
	}
	return e
}

// RewardMassBelow returns sum over {rho : rho <= maxRate} of pi_rho*RD_rho.
// This is ER_{jil} of Eq. (8): the expected reward collectable when only
// rates up to maxRate fit in the remaining resource of a base station. The
// support ascends in rate, so the sum is a prefix of it, added in order,
// and the scan stops at the first rate that does not fit.
func (d *RateReward) RewardMassBelow(maxRate float64) float64 {
	e := 0.0
	for _, o := range d.outcomes {
		if !(o.Rate <= maxRate) {
			break
		}
		e += o.Prob * o.Reward
	}
	return e
}

// Sample draws one (rate, reward) outcome by inverse-transform sampling.
func (d *RateReward) Sample(rng *rand.Rand) Outcome {
	u := rng.Float64()
	i := sort.SearchFloat64s(d.cum, u)
	if i >= len(d.outcomes) {
		i = len(d.outcomes) - 1
	}
	return d.outcomes[i]
}

// UniformRateReward builds the paper's default workload distribution: k
// rates evenly spread over [minRate, maxRate], uniform probabilities, and
// rewards drawn as unitReward * rate where unitReward is sampled uniformly
// from [minUnitReward, maxUnitReward] per outcome. (Section VI-A: rates in
// [30, 50] MB/s, unit rewards in [12, 15] dollars.) The draw of unit
// rewards per outcome makes reward demand-independent: a larger rate can
// carry a smaller total reward.
func UniformRateReward(k int, minRate, maxRate, minUnitReward, maxUnitReward float64, rng *rand.Rand) (*RateReward, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w: k=%d", ErrEmpty, k)
	}
	if minRate < 0 || maxRate < minRate || minUnitReward < 0 || maxUnitReward < minUnitReward {
		return nil, fmt.Errorf("%w: rates [%v, %v], unit rewards [%v, %v]",
			ErrBadValue, minRate, maxRate, minUnitReward, maxUnitReward)
	}
	outcomes := make([]Outcome, k)
	for i := range outcomes {
		var rate float64
		if k == 1 {
			rate = minRate
		} else {
			rate = minRate + float64(i)*(maxRate-minRate)/float64(k-1)
		}
		unit := minUnitReward + rng.Float64()*(maxUnitReward-minUnitReward)
		outcomes[i] = Outcome{Rate: rate, Prob: 1 / float64(k), Reward: unit * rate}
	}
	return NewRateReward(outcomes)
}

// IndependentRateReward builds a distribution whose rewards are drawn
// independently of the data rate: each outcome's reward is uniform in
// [minReward, maxReward] regardless of its rate. This is the paper's
// stated model ("the rewards and data rates of requests are independent",
// Section I challenge 2); the unit-price model of UniformRateReward is
// Section VI-A's pricing instantiation. probs selects the rate mass:
// uniform when decay <= 0 or >= 1, geometric otherwise.
func IndependentRateReward(k int, minRate, maxRate, minReward, maxReward, decay float64, rng *rand.Rand) (*RateReward, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w: k=%d", ErrEmpty, k)
	}
	if minRate < 0 || maxRate < minRate || minReward < 0 || maxReward < minReward {
		return nil, fmt.Errorf("%w: rates [%v, %v], rewards [%v, %v]",
			ErrBadValue, minRate, maxRate, minReward, maxReward)
	}
	outcomes := make([]Outcome, k)
	mass := 0.0
	w := 1.0
	geometric := decay > 0 && decay < 1
	for i := range outcomes {
		var rate float64
		if k == 1 {
			rate = minRate
		} else {
			rate = minRate + float64(i)*(maxRate-minRate)/float64(k-1)
		}
		reward := minReward + rng.Float64()*(maxReward-minReward)
		outcomes[i] = Outcome{Rate: rate, Prob: w, Reward: reward}
		mass += w
		if geometric {
			w *= decay
		}
	}
	for i := range outcomes {
		outcomes[i].Prob /= mass
	}
	return NewRateReward(outcomes)
}

// GeometricRateReward builds a distribution where large rates are
// geometrically rarer, matching the paper's observation ("the probability
// of requests with large data rates is usually small"). decay in (0, 1)
// controls how quickly mass falls off with rate.
func GeometricRateReward(k int, minRate, maxRate, minUnitReward, maxUnitReward, decay float64, rng *rand.Rand) (*RateReward, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w: k=%d", ErrEmpty, k)
	}
	if decay <= 0 || decay >= 1 {
		return nil, fmt.Errorf("%w: decay %v", ErrBadValue, decay)
	}
	outcomes := make([]Outcome, k)
	mass := 0.0
	w := 1.0
	for i := range outcomes {
		var rate float64
		if k == 1 {
			rate = minRate
		} else {
			rate = minRate + float64(i)*(maxRate-minRate)/float64(k-1)
		}
		unit := minUnitReward + rng.Float64()*(maxUnitReward-minUnitReward)
		outcomes[i] = Outcome{Rate: rate, Prob: w, Reward: unit * rate}
		mass += w
		w *= decay
	}
	for i := range outcomes {
		outcomes[i].Prob /= mass
	}
	return NewRateReward(outcomes)
}
