package core

import (
	"math"
	"math/rand"
	"testing"

	"mecoffload/internal/mec"
	"mecoffload/internal/workload"
)

func decomposeInstance(t *testing.T, stations, requests int, seed int64) (*mec.Network, []*mec.Request) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n, err := mec.RandomNetwork(stations, 3000, 3600, rng)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(workload.Config{NumRequests: requests, NumStations: stations}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return n, reqs
}

// TestDecomposedMatchesMonolithic is the decomposition's correctness
// anchor: the slot LP is block-diagonal across connected components of
// the candidate graph, so the sum of the per-component optima must equal
// the monolithic LP optimum (the optimal value is unique even when the
// optimal vertex is not). It also checks that every request receives the
// same number of variables either way.
func TestDecomposedMatchesMonolithic(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		n, reqs := decomposeInstance(t, 10, 50, seed)

		mono, err := buildLP(n, reqs, lpOptions{})
		if err != nil {
			t.Fatal(err)
		}
		_, monoObj, err := mono.solve()
		if err != nil {
			t.Fatal(err)
		}

		sc := getSlotScratch()
		err = solveDecomposed(n, reqs, lpOptions{}, solveCfg{}, sc, &sc.merged)
		if err != nil {
			putSlotScratch(sc)
			t.Fatal(err)
		}
		decObj := sc.merged.obj
		if len(sc.merged.vars) != len(mono.vars) {
			t.Fatalf("seed %d: decomposed has %d vars, monolithic %d", seed, len(sc.merged.vars), len(mono.vars))
		}
		putSlotScratch(sc)

		tol := 1e-7 * (1 + math.Abs(monoObj))
		if math.Abs(decObj-monoObj) > tol {
			t.Fatalf("seed %d: decomposed objective %.12f, monolithic %.12f", seed, decObj, monoObj)
		}
	}
}

// TestSplitComponentsPartition checks the structural invariants the
// deterministic merge relies on: components come back in ascending key
// order, station sets are disjoint, and every active request with at
// least one candidate appears in exactly one component.
func TestSplitComponentsPartition(t *testing.T) {
	n, reqs := decomposeInstance(t, 12, 40, 9)
	active := make([]int, len(reqs))
	for j := range active {
		active[j] = j
	}
	sc := getSlotScratch()
	defer putSlotScratch(sc)
	sc.reach.fill(n, reqs, active, nil, mec.DefaultSlotLengthMS)
	comps := splitComponents(n, reqs, lpOptions{
		active:       active,
		slotMHz:      n.SlotMHz(),
		slotLengthMS: mec.DefaultSlotLengthMS,
		reach:        &sc.reach,
	}, sc)
	if len(comps) == 0 {
		t.Fatal("no components over a dense workload")
	}
	seenSt := map[int]bool{}
	seenReq := map[int]bool{}
	prevKey := -1
	for _, c := range comps {
		if c.key <= prevKey {
			t.Fatalf("component keys not ascending: %d after %d", c.key, prevKey)
		}
		prevKey = c.key
		if len(c.stations) == 0 || c.stations[0] != c.key {
			t.Fatalf("component key %d is not its smallest station %v", c.key, c.stations)
		}
		for _, i := range c.stations {
			if seenSt[i] {
				t.Fatalf("station %d in two components", i)
			}
			seenSt[i] = true
		}
		for _, j := range c.reqs {
			if seenReq[j] {
				t.Fatalf("request %d in two components", j)
			}
			seenReq[j] = true
		}
	}
}
