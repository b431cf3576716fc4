package core_test

import (
	"math/rand"
	"testing"

	"mecoffload/internal/core"
	"mecoffload/internal/mec"
	"mecoffload/internal/sim"
	"mecoffload/internal/workload"
)

// The offline hindsight bound is sim.HindsightBound at horizon 1 over a
// workload that arrives at slot 0; these tests pin it against the
// offline algorithms.

func offlineInstance(t *testing.T, stations, n int, netSeed, reqSeed int64) (*mec.Network, []*mec.Request) {
	t.Helper()
	net, err := mec.RandomNetwork(stations, 3000, 3600, rand.New(rand.NewSource(netSeed)))
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(workload.Config{NumRequests: n, NumStations: stations}, rand.New(rand.NewSource(reqSeed)))
	if err != nil {
		t.Fatal(err)
	}
	return net, reqs
}

// TestHindsightDominatesAlgorithms: the full-information LP bound must be
// at least the realized reward of every algorithm on the same
// realizations.
func TestHindsightDominatesAlgorithms(t *testing.T) {
	net, reqs := offlineInstance(t, 6, 50, 31, 32)
	workload.Reset(reqs)
	rng := rand.New(rand.NewSource(33))
	res, err := core.Heu(net, reqs, rng, core.HeuOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Same realizations: HindsightBound realizes lazily, but Heu already
	// realized scheduled requests; unscheduled ones realize now.
	bound, err := sim.HindsightBound(net, reqs, 1, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bound < res.TotalReward-1e-6 {
		t.Fatalf("hindsight bound %v below Heu reward %v", bound, res.TotalReward)
	}
	if bound <= 0 {
		t.Fatal("hindsight bound should be positive")
	}
}

// TestHindsightZeroWhenNothingFeasible: impossible deadlines leave no
// variables and a zero bound.
func TestHindsightZeroWhenNothingFeasible(t *testing.T) {
	net, reqs := offlineInstance(t, 3, 5, 37, 38)
	for _, r := range reqs {
		r.DeadlineMS = 0.001
	}
	bound, err := sim.HindsightBound(net, reqs, 1, rand.New(rand.NewSource(39)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if bound != 0 {
		t.Fatalf("bound %v, want 0", bound)
	}
}
