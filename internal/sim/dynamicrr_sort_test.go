package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mecoffload/internal/core"
	"mecoffload/internal/dist"
	"mecoffload/internal/mec"
)

// TestSortByExpectedRateMatchesComparator pins R_t's admission order: the
// bounded pass, over the requests' keys, must return exactly the first
// limit entries of the order the comparator it replaced produced —
// recomputing both expected rates from the distributions on every
// comparison, ties broken by request index — on random subsets, in
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
	keys := make([]Key, len(reqs))
	for j := range reqs {
		reqs[j] = &mec.Request{ID: j, Dist: dists[rng.Intn(len(dists))]}
		keys[j] = KeyOf(reqs[j])
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
		got := d.sortByExpectedRate(keys, pending, limit)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d, limit=%d): order %v, want %v", trial, n, limit, got, want)
		}
		if !slices.Equal(pending, before) {
			t.Fatalf("trial %d: the pending set was reordered in place", trial)
		}
	}
}

// TestSortByExpectedRateBoundedPass pins the bounded pass on a flooded
// queue of 5 000 ascending indices, at limits 1, 2, 63, n−1, n and n+1,
// under the three rate orders that stress its heap: descending rates
// (every key displaces the top), all rates equal (the index alone
// decides, and no key after the first limit displaces one) and ascending
// rates. Each result must be the first limit entries of a full sort by
// (rate, index), and the pending set must be left as it was.
func TestSortByExpectedRateBoundedPass(t *testing.T) {
	const n = 5000
	pending := make([]int, n)
	for i := range pending {
		pending[i] = i
	}
	orders := map[string]func(j int) float64{
		"descending": func(j int) float64 { return float64(n - j) },
		"equal":      func(int) float64 { return 42 },
		"ascending":  func(j int) float64 { return float64(j) / 7 },
	}
	d := &DynamicRR{}
	for name, rateOf := range orders {
		keys := make([]Key, n)
		for j := range keys {
			keys[j].ExpectedRate = rateOf(j)
		}
		full := slices.Clone(pending)
		slices.SortFunc(full, func(a, b int) int {
			return compareRate(rateKey{rate: keys[a].ExpectedRate, req: a}, rateKey{rate: keys[b].ExpectedRate, req: b})
		})
		for _, limit := range []int{1, 2, 63, n - 1, n, n + 1} {
			got := d.sortByExpectedRate(keys, pending, limit)
			if want := full[:min(limit, n)]; !slices.Equal(got, want) {
				t.Fatalf("%s rates, limit %d: got %d requests, first %v; want first %v",
					name, limit, len(got), got[:min(5, len(got))], want[:min(5, len(want))])
			}
			for i, j := range pending {
				if i != j {
					t.Fatalf("%s rates, limit %d: the pending set was reordered in place", name, limit)
				}
			}
		}
	}
}

// BenchmarkSortByExpectedRate prices R_t's order on a flooded queue: 2 000
// pending requests with random rates, at limits of 16 and 64 (the bounded
// pass, as on a flooded slot) and 2 000 (the full sort, as when R_t takes
// the whole queue).
func BenchmarkSortByExpectedRate(b *testing.B) {
	const n = 2000
	rng := rand.New(rand.NewSource(66))
	keys := make([]Key, n)
	pending := make([]int, n)
	for j := range keys {
		keys[j].ExpectedRate, pending[j] = 30+20*rng.Float64(), j
	}
	for _, limit := range []int{16, 64, n} {
		b.Run(fmt.Sprintf("limit=%d", limit), func(b *testing.B) {
			d := &DynamicRR{}
			for i := 0; i < b.N; i++ {
				d.sortByExpectedRate(keys, pending, limit)
			}
		})
	}
}

// TestShareCountDoesNotWrap: R_t's size ⌊free/C^th⌋ stays a float until it
// is clamped at the pending count, so a mesh whose free MHz exceed
// MaxInt64·C^th admits what a small one does instead of wrapping the
// count negative and admitting nothing. One slot of three requests on four
// stations of 3 000 MHz, 1e18, 1e21 and 1e300 MHz each must admit the
// same requests.
func TestShareCountDoesNotWrap(t *testing.T) {
	var want []int
	for _, capMHz := range []float64{3000, 1e18, 1e21, 1e300} {
		net, err := mec.RandomNetwork(4, capMHz, capMHz, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewLiveEngine(net, rand.New(rand.NewSource(1)), 0)
		if err != nil {
			t.Fatal(err)
		}
		res := &core.Result{}
		var pending []int
		for j := 0; j < 3; j++ {
			if err := eng.Append(liveRequest(t, j, 0, j, 2, 30+float64(j))); err != nil {
				t.Fatal(err)
			}
			res.Decisions = append(res.Decisions, core.Decision{RequestID: j, Station: -1})
			pending = append(pending, j)
		}
		sched, err := NewDynamicRR(DynamicRROptions{})
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := eng.Step(sched, res, 0, pending)
		if err != nil {
			t.Fatalf("%g MHz per station: %v", capMHz, err)
		}
		if want == nil {
			if len(rep.Admitted) == 0 {
				t.Fatalf("%g MHz per station admitted nothing", capMHz)
			}
			want = slices.Clone(rep.Admitted)
		} else if !slices.Equal(rep.Admitted, want) {
			t.Fatalf("%g MHz per station admitted %v; 3000 MHz admits %v", capMHz, rep.Admitted, want)
		}
	}
}
