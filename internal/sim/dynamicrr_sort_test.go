package sim

import (
	"math/rand"
	"slices"
	"testing"

	"mecoffload/internal/dist"
	"mecoffload/internal/mec"
)

// TestSortByExpectedRateMatchesComparator pins R_t's admission order: the
// key selection must return exactly the first limit entries of the order
// the comparator it replaced produced — recomputing both expected rates on
// every comparison, ties broken by request index — on random subsets, in
// random input order, of a population where most rates are shared by
// several requests, with limits below, at and above the subset's size.
func TestSortByExpectedRateMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	dists := make([]*dist.RateReward, 7)
	for k := range dists {
		lo := 30 + float64(rng.Intn(4)) // few distinct means: ties are the rule
		d, err := dist.NewRateReward([]dist.Outcome{
			{Rate: lo, Prob: 0.5, Reward: 100},
			{Rate: lo + 10, Prob: 0.5, Reward: 200},
		})
		if err != nil {
			t.Fatal(err)
		}
		dists[k] = d
	}
	reqs := make([]*mec.Request, 400)
	for j := range reqs {
		reqs[j] = &mec.Request{ID: j, Dist: dists[rng.Intn(len(dists))]}
	}
	d := &DynamicRR{}
	for trial := 0; trial < 600; trial++ {
		var pending []int
		for _, j := range rng.Perm(len(reqs))[:rng.Intn(len(reqs)+1)] {
			pending = append(pending, j)
		}
		if trial%5 == 0 {
			slices.Sort(pending) // the engine's own queue is ascending
		}
		want := slices.Clone(pending)
		slices.SortFunc(want, func(a, b int) int {
			ra, rb := reqs[a].ExpectedRate(), reqs[b].ExpectedRate()
			switch {
			case ra < rb:
				return -1
			case ra > rb:
				return 1
			default:
				return a - b
			}
		})
		n := len(pending)
		var limit int
		switch trial % 3 {
		case 0: // 0 < limit < n: the selection
			if n < 2 {
				continue
			}
			limit = 1 + rng.Intn(n-1)
		case 1: // limit = n
			limit = n
		default: // limit > n
			limit = n + 1 + rng.Intn(50)
		}
		want = want[:min(limit, n)]
		before := slices.Clone(pending)
		got := d.sortByExpectedRate(reqs, pending, limit)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d, limit=%d): order %v, want %v", trial, n, limit, got, want)
		}
		if !slices.Equal(pending, before) {
			t.Fatalf("trial %d: the pending set was reordered in place", trial)
		}
	}
}
