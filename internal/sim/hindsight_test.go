package sim

import (
	"math/rand"
	"testing"
)

// TestHindsightDominatesOnlineSchedulers: the time-expanded
// full-information bound must be at least every online scheduler's
// realized reward on the same arrival stream and realizations.
func TestHindsightDominatesOnlineSchedulers(t *testing.T) {
	net, reqs := fixture(t, 6, 60, 25, 51)
	const horizon = 40

	for name, mk := range allSchedulers(t) {
		res, _, err := Simulate(net, reqs, mk(), rand.New(rand.NewSource(52)), RunOptions{Horizon: horizon})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Same realizations: scheduled requests realized during the run;
		// the bound realizes the remainder.
		bound, err := HindsightBound(net, reqs, horizon, rand.New(rand.NewSource(53)), 0)
		if err != nil {
			t.Fatalf("%s bound: %v", name, err)
		}
		if bound < res.TotalReward-1e-6 {
			t.Fatalf("%s reward %v exceeds hindsight bound %v", name, res.TotalReward, bound)
		}
	}
}

func TestHindsightBoundValidation(t *testing.T) {
	net, reqs := fixture(t, 3, 10, 5, 54)
	rng := rand.New(rand.NewSource(55))
	if _, err := HindsightBound(nil, reqs, 10, rng, 0); err == nil {
		t.Error("want error for nil network")
	}
	if _, err := HindsightBound(net, nil, 10, rng, 0); err == nil {
		t.Error("want error for empty workload")
	}
	if _, err := HindsightBound(net, reqs, 0, rng, 0); err == nil {
		t.Error("want error for zero horizon")
	}
}

func TestHindsightBoundSaturates(t *testing.T) {
	// With far more demand than time-expanded capacity, the bound must be
	// limited by capacity, not by the request count.
	net, reqs := fixture(t, 4, 200, 10, 56)
	bound, err := HindsightBound(net, reqs, 20, rand.New(rand.NewSource(57)), 0)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, r := range reqs {
		out, ok := r.Realized()
		if ok {
			total += out.Reward
		}
	}
	if bound >= total {
		t.Fatalf("bound %v not capacity-limited (sum of all rewards %v)", bound, total)
	}
	if bound <= 0 {
		t.Fatal("bound should be positive")
	}
}
