package dist

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestNewRateRewardEdges is the table-driven edge-case sweep of the
// constructor: degenerate supports, zero-probability outcomes, duplicate
// rates, and every validation failure mode.
func TestNewRateRewardEdges(t *testing.T) {
	cases := []struct {
		name    string
		in      []Outcome
		wantErr error
		wantLen int
	}{
		{name: "empty", in: nil, wantErr: ErrEmpty},
		{name: "all zero probability", in: []Outcome{
			{Rate: 30, Prob: 0, Reward: 100},
			{Rate: 50, Prob: 0, Reward: 200},
		}, wantErr: ErrEmpty},
		{name: "zero-prob outcomes dropped", in: []Outcome{
			{Rate: 30, Prob: 0, Reward: 100},
			{Rate: 40, Prob: 1, Reward: 150},
			{Rate: 50, Prob: 0, Reward: 200},
		}, wantLen: 1},
		{name: "single outcome", in: []Outcome{
			{Rate: 40, Prob: 1, Reward: 150},
		}, wantLen: 1},
		{name: "duplicate rates merged", in: []Outcome{
			{Rate: 40, Prob: 0.25, Reward: 100},
			{Rate: 40, Prob: 0.75, Reward: 200},
		}, wantLen: 1},
		{name: "mass below one", in: []Outcome{
			{Rate: 30, Prob: 0.5, Reward: 100},
		}, wantErr: ErrBadProb},
		{name: "mass above one", in: []Outcome{
			{Rate: 30, Prob: 0.7, Reward: 100},
			{Rate: 50, Prob: 0.7, Reward: 100},
		}, wantErr: ErrBadProb},
		{name: "negative probability", in: []Outcome{
			{Rate: 30, Prob: -0.5, Reward: 100},
			{Rate: 50, Prob: 1.5, Reward: 100},
		}, wantErr: ErrBadProb},
		{name: "NaN probability", in: []Outcome{
			{Rate: 30, Prob: math.NaN(), Reward: 100},
		}, wantErr: ErrBadProb},
		{name: "negative rate", in: []Outcome{
			{Rate: -1, Prob: 1, Reward: 100},
		}, wantErr: ErrBadValue},
		{name: "negative reward", in: []Outcome{
			{Rate: 30, Prob: 1, Reward: -5},
		}, wantErr: ErrBadValue},
		{name: "infinite rate", in: []Outcome{
			{Rate: math.Inf(1), Prob: 1, Reward: 100},
		}, wantErr: ErrBadValue},
		{name: "NaN reward", in: []Outcome{
			{Rate: 30, Prob: 1, Reward: math.NaN()},
		}, wantErr: ErrBadValue},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewRateReward(tc.in)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("error %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if d.Len() != tc.wantLen {
				t.Fatalf("support size %d, want %d", d.Len(), tc.wantLen)
			}
		})
	}
}

// TestSingleOutcomeDistribution: a one-point distribution is fully
// deterministic — min, max, and expectation coincide, and sampling always
// returns the sole outcome.
func TestSingleOutcomeDistribution(t *testing.T) {
	d, err := NewRateReward([]Outcome{{Rate: 40, Prob: 1, Reward: 150}})
	if err != nil {
		t.Fatal(err)
	}
	if d.MinRate() != 40 || d.MaxRate() != 40 || d.ExpectedRate() != 40 {
		t.Fatalf("min/max/expected = %v/%v/%v, want 40 each", d.MinRate(), d.MaxRate(), d.ExpectedRate())
	}
	if d.ExpectedReward() != 150 {
		t.Fatalf("expected reward %v, want 150", d.ExpectedReward())
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		if o := d.Sample(rng); o.Rate != 40 || o.Reward != 150 {
			t.Fatalf("sample %d: %+v, want the single outcome", i, o)
		}
	}
}

// TestDuplicateRateMergeWeights: merging duplicate rates must add
// probabilities and probability-weight the rewards.
func TestDuplicateRateMergeWeights(t *testing.T) {
	d, err := NewRateReward([]Outcome{
		{Rate: 40, Prob: 0.25, Reward: 100},
		{Rate: 40, Prob: 0.75, Reward: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	o := d.Outcomes()[0]
	if o.Prob != 1 {
		t.Fatalf("merged prob %v, want 1", o.Prob)
	}
	want := 0.25*100 + 0.75*200
	if math.Abs(o.Reward-want) > 1e-12 {
		t.Fatalf("merged reward %v, want %v", o.Reward, want)
	}
}

// TestExpectedTruncatedRateEdges pins the truncation used by LP
// constraint (10) at each piece of its piecewise form.
func TestExpectedTruncatedRateEdges(t *testing.T) {
	d, err := NewRateReward([]Outcome{
		{Rate: 30, Prob: 0.5, Reward: 1},
		{Rate: 50, Prob: 0.5, Reward: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		cap, want float64
	}{
		{cap: 0, want: 0},                 // non-positive cap truncates everything
		{cap: -10, want: 0},               //
		{cap: 10, want: 10},               // below the whole support: cap itself
		{cap: 30, want: 30},               // at the min rate
		{cap: 40, want: 0.5*30 + 0.5*40},  // between outcomes
		{cap: 50, want: 0.5*30 + 0.5*50},  // at the max: full expectation
		{cap: 100, want: 0.5*30 + 0.5*50}, // above: full expectation
	}
	for _, tc := range cases {
		if got := d.ExpectedTruncatedRate(tc.cap); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("ExpectedTruncatedRate(%v) = %v, want %v", tc.cap, got, tc.want)
		}
	}
	if got, want := d.ExpectedTruncatedRate(1e18), d.ExpectedRate(); got != want {
		t.Errorf("huge cap: %v, want ExpectedRate %v", got, want)
	}
}

// TestRewardMassAndCDFEdges: boundary behavior of the Eq. (8) reward mass
// and the rate CDF at, below, and above support points.
func TestRewardMassAndCDFEdges(t *testing.T) {
	d, err := NewRateReward([]Outcome{
		{Rate: 30, Prob: 0.25, Reward: 80},
		{Rate: 50, Prob: 0.75, Reward: 160},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.RewardMassBelow(29.999); got != 0 {
		t.Errorf("RewardMassBelow(29.999) = %v, want 0", got)
	}
	if got, want := d.RewardMassBelow(30), 0.25*80.0; got != want {
		t.Errorf("RewardMassBelow(30) = %v, want %v (inclusive boundary)", got, want)
	}
	if got, want := d.RewardMassBelow(50), d.ExpectedReward(); got != want {
		t.Errorf("RewardMassBelow(50) = %v, want full mass %v", got, want)
	}
}

// TestSampleMassConservation: inverse-transform sampling must never
// return a zero-probability rate and must hit every support point with
// roughly its assigned mass.
func TestSampleMassConservation(t *testing.T) {
	d, err := NewRateReward([]Outcome{
		{Rate: 30, Prob: 0.2, Reward: 1},
		{Rate: 35, Prob: 0, Reward: 1},
		{Rate: 40, Prob: 0.8, Reward: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	const n = 20000
	counts := map[float64]int{}
	for i := 0; i < n; i++ {
		counts[d.Sample(rng).Rate]++
	}
	if counts[35] != 0 {
		t.Fatalf("sampled the zero-probability rate %d times", counts[35])
	}
	if f := float64(counts[30]) / n; math.Abs(f-0.2) > 0.02 {
		t.Fatalf("rate 30 frequency %v, want about 0.2", f)
	}
}
