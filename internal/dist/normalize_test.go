package dist

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randomList draws one outcome list of the given shape — rate-sorted,
// unsorted, with duplicate rates, with zero-probability entries, a single
// outcome, or a long unsorted list with duplicates (past the sort's
// insertion-sort cut-off) — whose probabilities sum to about 1.
func randomList(rng *rand.Rand, shape string) []Outcome {
	n := 2 + rng.Intn(7)
	switch shape {
	case "single":
		n = 1
	case "long":
		n = 13 + rng.Intn(40)
	}
	list := make([]Outcome, n)
	weights := 0.0
	for i := range list {
		rate := 30 + 20*rng.Float64()
		if shape == "duplicates" || shape == "long" {
			rate = float64(30 + 10*rng.Intn(3))
		}
		w := rng.Float64()
		if (shape == "zeros" || shape == "long") && rng.Intn(3) == 0 {
			w = 0
		}
		list[i] = Outcome{Rate: rate, Prob: w, Reward: 100 + 400*rng.Float64()}
		weights += w
	}
	for i := range list {
		list[i].Prob /= weights
	}
	if shape == "sorted" {
		slices.SortFunc(list, func(a, b Outcome) int { return cmp.Compare(a.Rate, b.Rate) })
	}
	return list
}

var listShapes = []string{"sorted", "unsorted", "duplicates", "zeros", "single", "long"}

// TestExpectedRateOfMatchesNewRateReward: the expected rate a caller works
// out in its own buffer — ExpectedRateOf over Normalize of a copy of the
// list — is NewRateReward(list).ExpectedRate() bit for bit, on random
// lists of every shape; and neither touches the caller's list.
func TestExpectedRateOfMatchesNewRateReward(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for trial := 0; trial < 6000; trial++ {
		shape := listShapes[trial%len(listShapes)]
		list := randomList(rng, shape)
		before := slices.Clone(list)
		d, err := NewRateReward(list)
		if err != nil {
			if checkMass(list) == nil {
				t.Fatalf("trial %d (%s): NewRateReward refused a list the Mass rule accepts: %v", trial, shape, err)
			}
			continue
		}
		got := ExpectedRateOf(Normalize(slices.Clone(list)))
		if math.Float64bits(got) != math.Float64bits(d.ExpectedRate()) {
			t.Fatalf("trial %d (%s): ExpectedRateOf gives %v, the distribution %v", trial, shape, got, d.ExpectedRate())
		}
		if !slices.Equal(list, before) {
			t.Fatalf("trial %d (%s): the caller's list changed", trial, shape)
		}
	}
}

// TestArenaMatchesNewRateReward: a distribution carved from an Arena holds
// NewRateReward's support and cumulative probabilities bit for bit, does
// not share them with its neighbours in the chunk, and a run of them
// allocates a chunk now and then, not three times each.
func TestArenaMatchesNewRateReward(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var a Arena
	type built struct{ want, got *RateReward }
	var all []built
	for trial := 0; trial < 3000; trial++ {
		list := randomList(rng, listShapes[trial%len(listShapes)])
		want, werr := NewRateReward(list)
		got, gerr := a.New(list)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("trial %d: arena error %v, NewRateReward %v", trial, gerr, werr)
		}
		if werr == nil {
			all = append(all, built{want, got})
		}
	}
	// Compared once every distribution exists: a later carve overwriting an
	// earlier one's storage would show here.
	for i, b := range all {
		if !slices.Equal(b.got.outcomes, b.want.outcomes) || !slices.Equal(b.got.cum, b.want.cum) {
			t.Fatalf("distribution %d: arena holds %v (cum %v), NewRateReward %v (cum %v)", i, b.got.outcomes, b.got.cum, b.want.outcomes, b.want.cum)
		}
		if cap(b.got.outcomes) != len(b.got.outcomes) {
			t.Fatalf("distribution %d: support has room to grow into its neighbour's", i)
		}
	}
	one := []Outcome{{Rate: 41.5, Prob: 1, Reward: 512}}
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := a.New(one); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0.1 {
		t.Fatalf("an arena distribution costs %v allocations, want its share of three chunks (1/16 + 1/85 + 1/80)", allocs)
	}
}
