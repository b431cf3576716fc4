package workload

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestArrivalProcessInvariants: ApplyArrivals gives every request a slot
// in [0, horizon), non-decreasing in request order, and refuses a zero
// horizon.
func TestArrivalProcessInvariants(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		horizon := 1 + rng.Intn(150)
		reqs, err := Generate(Config{NumRequests: n, NumStations: 3}, rng)
		if err != nil {
			return false
		}
		if err := ApplyArrivals(reqs, horizon, rng); err != nil {
			return false
		}
		prev := 0
		for _, r := range reqs {
			if r.ArrivalSlot < prev || r.ArrivalSlot >= horizon {
				return false
			}
			prev = r.ArrivalSlot
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
	reqs, err := Generate(Config{NumRequests: 5, NumStations: 2}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := ApplyArrivals(reqs, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("want error for zero horizon")
	}
}

// TestDrawArrivalsMatchesReference: the one arrival draw that Generate
// and ApplyArrivals share makes one rng.Intn(horizon) per request in
// request order and sorts the slots, so it leaves what the reference loop
// below (draw, then insertion sort) leaves from the same stream; horizon 0
// draws nothing.
func TestDrawArrivalsMatchesReference(t *testing.T) {
	const n, horizon = 40, 25
	want := make([]int, n)
	rng := rand.New(rand.NewSource(9))
	for i := range want {
		want[i] = rng.Intn(horizon)
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && want[j] < want[j-1]; j-- {
			want[j], want[j-1] = want[j-1], want[j]
		}
	}
	got := drawArrivals(n, horizon, rand.New(rand.NewSource(9)))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d = %d, want %d (draws %v, want %v)", i, got[i], want[i], got, want)
		}
	}
	if zero := drawArrivals(3, 0, nil); zero[0] != 0 || zero[1] != 0 || zero[2] != 0 {
		t.Fatalf("horizon 0 slots = %v, want all 0", zero)
	}
}

func TestApplyArrivals(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	reqs, err := Generate(Config{NumRequests: 30, NumStations: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		r.Realize(rng)
	}
	if err := ApplyArrivals(reqs, 60, rng); err != nil {
		t.Fatal(err)
	}
	prev := 0
	for i, r := range reqs {
		if r.ID != i {
			t.Fatalf("IDs not renumbered: %d at %d", r.ID, i)
		}
		if r.ArrivalSlot < prev {
			t.Fatal("arrivals not sorted")
		}
		prev = r.ArrivalSlot
		if _, ok := r.Realized(); ok {
			t.Fatal("realization state must be cleared")
		}
	}
}
