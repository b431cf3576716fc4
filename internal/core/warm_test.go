package core

import (
	"math"
	"math/rand"
	"testing"

	"mecoffload/internal/lp"
	"mecoffload/internal/mec"
	"mecoffload/internal/workload"
)

// warmTightEq mirrors the warm-start contract tolerance: warm and cold
// solves of the same LP must agree on the objective to 1e-9.
func warmTightEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

// TestLPPTWarmColdObjectiveProperty replays randomized per-slot LP-PT
// sequences — active-set churn, occupancy growth, waiting-time drift, the
// way sim.DynamicRR drives the model — and asserts that solving each slot
// warm (from the previous slot's optimal basis) reaches exactly the cold
// objective. This is the property that makes warm starting safe to leave
// on everywhere: it buys iterations, never a different optimum.
func TestLPPTWarmColdObjectiveProperty(t *testing.T) {
	seeds := []int64{11, 22, 33, 44}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		net, err := mec.RandomNetwork(8, 3000, 3600, rng)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := workload.Generate(workload.Config{
			NumRequests: 40, NumStations: 8, GeometricRates: true,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}

		used := make([]float64, net.NumStations())
		var warm *lp.Basis
		slots := 8
		if testing.Short() {
			slots = 4
		}
		for slot := 0; slot < slots; slot++ {
			// Random active subset, as arrivals/departures would produce.
			var active []int
			for j := range reqs {
				if rng.Float64() < 0.5 {
					active = append(active, j)
				}
			}
			if len(active) == 0 {
				active = []int{rng.Intn(len(reqs))}
			}
			rt := float64(len(active))
			model, err := buildLP(net, reqs, lpOptions{
				active:      active,
				capOf:       func(i int) float64 { return net.Capacity(i) - used[i] },
				shareCapFor: func(i int) float64 { return net.Capacity(i) / rt / net.CUnit() },
				waitSlots:   func(j int) int { return slot / 2 },
			})
			if err != nil {
				t.Fatal(err)
			}
			_, coldObj, _, err := model.solveWarm(nil, nil)
			if err != nil {
				t.Fatalf("seed %d slot %d cold: %v", seed, slot, err)
			}
			_, warmObj, basis, err := model.solveWarm(warm, nil)
			if err != nil {
				t.Fatalf("seed %d slot %d warm: %v", seed, slot, err)
			}
			if !warmTightEq(coldObj, warmObj) {
				t.Fatalf("seed %d slot %d: cold %v != warm %v", seed, slot, coldObj, warmObj)
			}
			warm = basis

			// Commit some random occupancy so the next slot's residual
			// capacities (and thus its LP) drift like a real timeline.
			for i := range used {
				free := net.Capacity(i) - used[i]
				used[i] += rng.Float64() * 0.2 * free
			}
		}
	}
}

// TestWarmCacheNilSafe exercises the nil-receiver contract that lets every
// caller skip "if warm != nil" guards.
func TestWarmCacheNilSafe(t *testing.T) {
	var w *WarmCache
	if got := w.get(0, 0); got != nil {
		t.Fatalf("nil cache get = %v", got)
	}
	w.put(0, 0, &lp.Basis{}) // must not panic
	c := NewWarmCache()
	if got := c.get(3, 0); got != nil {
		t.Fatalf("empty cache get = %v", got)
	}
	b := &lp.Basis{}
	c.put(3, 0, b)
	if got := c.get(3, 0); got != b {
		t.Fatalf("cache round-trip lost the basis")
	}
	c.put(3, 0, nil) // nil puts are dropped, keeping the last real basis
	if got := c.get(3, 0); got != b {
		t.Fatalf("nil put evicted the cached basis")
	}
}
