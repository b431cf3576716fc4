package dist

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func mustDist(t *testing.T, outcomes []Outcome) *RateReward {
	t.Helper()
	d, err := NewRateReward(outcomes)
	if err != nil {
		t.Fatalf("NewRateReward: %v", err)
	}
	return d
}

func TestNewRateRewardValidation(t *testing.T) {
	cases := []struct {
		name     string
		outcomes []Outcome
	}{
		{"empty", nil},
		{"mass below one", []Outcome{{Rate: 10, Prob: 0.5, Reward: 1}}},
		{"mass above one", []Outcome{{Rate: 10, Prob: 0.7, Reward: 1}, {Rate: 20, Prob: 0.6, Reward: 1}}},
		{"negative prob", []Outcome{{Rate: 10, Prob: -0.2, Reward: 1}, {Rate: 20, Prob: 1.2, Reward: 1}}},
		{"negative rate", []Outcome{{Rate: -10, Prob: 1, Reward: 1}}},
		{"negative reward", []Outcome{{Rate: 10, Prob: 1, Reward: -1}}},
		{"nan prob", []Outcome{{Rate: 10, Prob: math.NaN(), Reward: 1}}},
		{"inf rate", []Outcome{{Rate: math.Inf(1), Prob: 1, Reward: 1}}},
		{"all zero prob", []Outcome{{Rate: 10, Prob: 0, Reward: 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewRateReward(tc.outcomes); err == nil {
				t.Fatalf("want error for %v", tc.outcomes)
			}
		})
	}
}

func TestMergeDuplicateRates(t *testing.T) {
	d := mustDist(t, []Outcome{
		{Rate: 10, Prob: 0.25, Reward: 100},
		{Rate: 10, Prob: 0.25, Reward: 300},
		{Rate: 20, Prob: 0.5, Reward: 50},
	})
	if d.Len() != 2 {
		t.Fatalf("support size %d, want 2 after merge", d.Len())
	}
	// Probability-weighted reward of the merged outcome: (100+300)/2.
	if o := d.Outcomes()[0]; o.Rate != 10 || math.Abs(o.Reward-200) > 1e-9 {
		t.Fatalf("merged outcome %+v, want rate 10 at reward 200", o)
	}
}

func TestExpectations(t *testing.T) {
	d := mustDist(t, []Outcome{
		{Rate: 10, Prob: 0.5, Reward: 100},
		{Rate: 30, Prob: 0.5, Reward: 60},
	})
	if got := d.ExpectedRate(); math.Abs(got-20) > 1e-9 {
		t.Fatalf("E[rate] = %v, want 20", got)
	}
	if got := d.ExpectedReward(); math.Abs(got-80) > 1e-9 {
		t.Fatalf("E[reward] = %v, want 80", got)
	}
	if got := d.MinRate(); got != 10 {
		t.Fatalf("min rate %v", got)
	}
	if got := d.MaxRate(); got != 30 {
		t.Fatalf("max rate %v", got)
	}
}

func TestTruncatedExpectation(t *testing.T) {
	d := mustDist(t, []Outcome{
		{Rate: 10, Prob: 0.5, Reward: 1},
		{Rate: 30, Prob: 0.5, Reward: 1},
	})
	cases := []struct{ cap, want float64 }{
		{0, 0},
		{-5, 0},
		{5, 5},
		{10, 10},
		{20, 15},
		{30, 20},
		{100, 20},
	}
	for _, tc := range cases {
		if got := d.ExpectedTruncatedRate(tc.cap); math.Abs(got-tc.want) > 1e-9 {
			t.Fatalf("E[min(rate, %v)] = %v, want %v", tc.cap, got, tc.want)
		}
	}
}

func TestRewardMassBelow(t *testing.T) {
	d := mustDist(t, []Outcome{
		{Rate: 10, Prob: 0.25, Reward: 100},
		{Rate: 20, Prob: 0.25, Reward: 200},
		{Rate: 30, Prob: 0.5, Reward: 300},
	})
	cases := []struct{ maxRate, want float64 }{
		{5, 0},
		{10, 25},
		{25, 75},
		{30, 225},
	}
	for _, tc := range cases {
		if got := d.RewardMassBelow(tc.maxRate); math.Abs(got-tc.want) > 1e-9 {
			t.Fatalf("RewardMassBelow(%v) = %v, want %v", tc.maxRate, got, tc.want)
		}
	}
}

func TestSampleMatchesDistribution(t *testing.T) {
	d := mustDist(t, []Outcome{
		{Rate: 10, Prob: 0.2, Reward: 1},
		{Rate: 20, Prob: 0.8, Reward: 2},
	})
	rng := rand.New(rand.NewSource(9))
	const n = 20000
	hits := 0
	for i := 0; i < n; i++ {
		if d.Sample(rng).Rate == 20 {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.8) > 0.02 {
		t.Fatalf("sampled P[rate=20] = %v, want ~0.8", frac)
	}
}

// Property: truncated expectation is monotone in the cap and bounded by
// both the cap and the full expectation.
func TestTruncatedExpectationProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d, err := UniformRateReward(1+rng.Intn(8), 5+rng.Float64()*10, 30+rng.Float64()*30, 1, 3, rng)
		if err != nil {
			return false
		}
		prev := 0.0
		for cap := 0.0; cap <= 70; cap += 3.5 {
			e := d.ExpectedTruncatedRate(cap)
			if e < prev-1e-12 || e > cap+1e-12 || e > d.ExpectedRate()+1e-12 {
				return false
			}
			prev = e
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestUniformRateReward(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d, err := UniformRateReward(5, 30, 50, 12, 15, rng)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 5 {
		t.Fatalf("support %d, want 5", d.Len())
	}
	if d.MinRate() != 30 || d.MaxRate() != 50 {
		t.Fatalf("rate range [%v, %v], want [30, 50]", d.MinRate(), d.MaxRate())
	}
	for _, o := range d.Outcomes() {
		if math.Abs(o.Prob-0.2) > 1e-9 {
			t.Fatalf("uniform prob %v, want 0.2", o.Prob)
		}
		unit := o.Reward / o.Rate
		if unit < 12-1e-9 || unit > 15+1e-9 {
			t.Fatalf("unit reward %v outside [12, 15]", unit)
		}
	}
	if _, err := UniformRateReward(0, 1, 2, 1, 2, rng); err == nil {
		t.Error("want error for empty support")
	}
	if _, err := UniformRateReward(3, 5, 2, 1, 2, rng); err == nil {
		t.Error("want error for inverted rate range")
	}
}

func TestGeometricRateReward(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d, err := GeometricRateReward(5, 30, 50, 12, 15, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	outs := d.Outcomes()
	total := 0.0
	for i := 1; i < len(outs); i++ {
		if outs[i].Prob >= outs[i-1].Prob {
			t.Fatalf("geometric mass must decay: %v then %v", outs[i-1].Prob, outs[i].Prob)
		}
	}
	for _, o := range outs {
		total += o.Prob
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("mass %v, want 1", total)
	}
	if _, err := GeometricRateReward(5, 30, 50, 12, 15, 1.5, rng); err == nil {
		t.Error("want error for decay >= 1")
	}
}

func TestOutcomesCopy(t *testing.T) {
	d := mustDist(t, []Outcome{{Rate: 10, Prob: 1, Reward: 5}})
	outs := d.Outcomes()
	outs[0].Reward = 999
	if got := d.Outcomes()[0].Reward; got != 5 {
		t.Fatal("Outcomes must return a copy")
	}
}

// referenceNewRateReward is NewRateReward as it was before it kept its
// merged copy and left rate-sorted lists unsorted: it sorts every list and
// copies the merged outcomes a second time. The differential test below
// holds NewRateReward to it.
func referenceNewRateReward(outcomes []Outcome) (*RateReward, error) {
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
	d.cum[len(d.cum)-1] = 1
	return d, nil
}

// TestNewRateRewardMatchesReference: on random lists — rate-sorted,
// unsorted, with duplicate rates, with zero-probability entries, of a
// single outcome — NewRateReward builds what the reference builds, bit for
// bit, and both sample the same sequence from one seed.
func TestNewRateRewardMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	bits := func(o Outcome) [3]uint64 {
		return [3]uint64{math.Float64bits(o.Rate), math.Float64bits(o.Prob), math.Float64bits(o.Reward)}
	}
	shapes := []string{"sorted", "unsorted", "duplicates", "zeros", "single"}
	for trial := 0; trial < 5000; trial++ {
		shape := shapes[trial%len(shapes)]
		n := 2 + rng.Intn(7)
		if shape == "single" {
			n = 1
		}
		list := make([]Outcome, n)
		weights := 0.0
		for i := range list {
			rate := 30 + 20*rng.Float64()
			if shape == "duplicates" {
				rate = float64(30 + 10*rng.Intn(3))
			}
			w := rng.Float64()
			if shape == "zeros" && i%2 == 1 {
				w = 0
			}
			list[i] = Outcome{Rate: rate, Prob: w, Reward: 100 + 400*rng.Float64()}
			weights += w
		}
		for i := range list {
			list[i].Prob /= weights
		}
		if shape == "sorted" {
			sort.Slice(list, func(i, j int) bool { return list[i].Rate < list[j].Rate })
		}
		want, werr := referenceNewRateReward(list)
		got, gerr := NewRateReward(list)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("trial %d (%s): error %v, reference %v", trial, shape, gerr, werr)
		}
		if werr != nil {
			continue
		}
		wo, gou := want.Outcomes(), got.Outcomes()
		if len(wo) != len(gou) || len(want.cum) != len(got.cum) {
			t.Fatalf("trial %d (%s): %d outcomes, reference %d", trial, shape, len(gou), len(wo))
		}
		for i := range wo {
			if bits(wo[i]) != bits(gou[i]) || math.Float64bits(want.cum[i]) != math.Float64bits(got.cum[i]) {
				t.Fatalf("trial %d (%s): outcome %d is %+v (cum %v), reference %+v (cum %v)", trial, shape, i, gou[i], got.cum[i], wo[i], want.cum[i])
			}
		}
		seed := rng.Int63()
		wr, gr := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for k := 0; k < 32; k++ {
			if w, g := want.Sample(wr), got.Sample(gr); bits(w) != bits(g) {
				t.Fatalf("trial %d (%s): draw %d is %+v, reference %+v", trial, shape, k, g, w)
			}
		}
	}
}

// referenceRewardMassBelow and referenceExpectedTruncatedRate are the
// loops RewardMassBelow and ExpectedTruncatedRate ran before the first
// stopped at the first rate above maxRate and the second took the builtin
// min: every outcome visited, math.Min.
func referenceRewardMassBelow(d *RateReward, maxRate float64) float64 {
	e := 0.0
	for _, o := range d.outcomes {
		if o.Rate <= maxRate {
			e += o.Prob * o.Reward
		}
	}
	return e
}

func referenceExpectedTruncatedRate(d *RateReward, cap float64) float64 {
	if cap <= 0 {
		return 0
	}
	e := 0.0
	for _, o := range d.outcomes {
		e += o.Prob * math.Min(o.Rate, cap)
	}
	return e
}

// TestMassBelowMatchesReference: on random supports — some holding rate 0,
// some a single outcome — RewardMassBelow and ExpectedTruncatedRate return
// the reference loops' figures bit for bit, at every rate of the support
// (a rate equal to maxRate fits; a cap equal to a rate), at 0, between and
// around the rates, below 0, at ±Inf and at NaN (where a NaN cap gives NaN
// either way, but not necessarily the same bits).
func TestMassBelowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	zeroRate, atRate := 0, 0
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(6)
		list := make([]Outcome, n)
		weights := 0.0
		for i := range list {
			rate := 20 + 60*rng.Float64()
			if i == 0 && trial%3 == 0 {
				rate = 0
				zeroRate++
			}
			w := 0.05 + rng.Float64()
			list[i] = Outcome{Rate: rate, Prob: w, Reward: 100 + 900*rng.Float64()}
			weights += w
		}
		for i := range list {
			list[i].Prob /= weights
		}
		d := mustDist(t, list)
		probes := []float64{0, -1, math.Inf(1), math.Inf(-1), math.NaN(), 1e-300, 200 * rng.Float64()}
		for _, o := range d.outcomes {
			probes = append(probes, o.Rate, math.Nextafter(o.Rate, math.Inf(1)), math.Nextafter(o.Rate, math.Inf(-1)))
			atRate++
		}
		for _, x := range probes {
			if g, w := d.RewardMassBelow(x), referenceRewardMassBelow(d, x); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("trial %d: RewardMassBelow(%v) = %v, reference %v (support %+v)", trial, x, g, w, d.outcomes)
			}
			g, w := d.ExpectedTruncatedRate(x), referenceExpectedTruncatedRate(d, x)
			if math.IsNaN(x) {
				// No caller truncates at NaN; both say NaN, if not the
				// same one.
				if !math.IsNaN(g) || !math.IsNaN(w) {
					t.Fatalf("trial %d: ExpectedTruncatedRate(NaN) = %v, reference %v", trial, g, w)
				}
				continue
			}
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("trial %d: ExpectedTruncatedRate(%v) = %v, reference %v (support %+v)", trial, x, g, w, d.outcomes)
			}
		}
	}
	if zeroRate < 500 || atRate < 3000 {
		t.Fatalf("%d supports with rate 0, %d probes at a rate: the generator lost its coverage", zeroRate, atRate)
	}
}
