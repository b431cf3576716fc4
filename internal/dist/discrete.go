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
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Tolerance for probability-mass validation.
const probEps = 1e-9

// Errors returned by distribution constructors.
var (
	ErrEmpty       = errors.New("dist: empty distribution")
	ErrBadProb     = errors.New("dist: probabilities must be non-negative and sum to 1")
	ErrBadValue    = errors.New("dist: values must be finite and non-negative")
	ErrUnsupported = errors.New("dist: value not in support")
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
// copied, sorted by rate, and duplicate rates are merged (probabilities
// added, rewards probability-weighted).
func NewRateReward(outcomes []Outcome) (*RateReward, error) {
	var mass Mass
	for _, o := range outcomes {
		if err := mass.Add(o); err != nil {
			return nil, err
		}
	}
	if err := mass.Check(); err != nil {
		return nil, err
	}
	os := make([]Outcome, len(outcomes))
	copy(os, outcomes)
	sort.Slice(os, func(i, j int) bool { return os[i].Rate < os[j].Rate })

	merged := os[:0]
	for _, o := range os {
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
	d := &RateReward{
		outcomes: append([]Outcome(nil), merged...),
		cum:      make([]float64, len(merged)),
	}
	c := 0.0
	for i, o := range d.outcomes {
		c += o.Prob
		d.cum[i] = c
	}
	d.cum[len(d.cum)-1] = 1 // guard against float drift
	return d, nil
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
func (d *RateReward) ExpectedRate() float64 {
	e := 0.0
	for _, o := range d.outcomes {
		e += o.Prob * o.Rate
	}
	return e
}

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
// used in LP constraint (10) and in Lemma 2's occupancy bound.
func (d *RateReward) ExpectedTruncatedRate(cap float64) float64 {
	if cap <= 0 {
		return 0
	}
	e := 0.0
	for _, o := range d.outcomes {
		e += o.Prob * math.Min(o.Rate, cap)
	}
	return e
}

// RewardMassBelow returns sum over {rho : rho <= maxRate} of pi_rho*RD_rho.
// This is ER_{jil} of Eq. (8): the expected reward collectable when only
// rates up to maxRate fit in the remaining resource of a base station.
func (d *RateReward) RewardMassBelow(maxRate float64) float64 {
	e := 0.0
	for _, o := range d.outcomes {
		if o.Rate <= maxRate {
			e += o.Prob * o.Reward
		}
	}
	return e
}

// ProbRateAtMost returns P[rho <= maxRate].
func (d *RateReward) ProbRateAtMost(maxRate float64) float64 {
	p := 0.0
	for _, o := range d.outcomes {
		if o.Rate <= maxRate {
			p += o.Prob
		}
	}
	return p
}

// RewardFor returns the reward attached to an exact rate in the support.
func (d *RateReward) RewardFor(rate float64) (float64, error) {
	for _, o := range d.outcomes {
		if o.Rate == rate {
			return o.Reward, nil
		}
	}
	return 0, fmt.Errorf("%w: rate %v", ErrUnsupported, rate)
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
