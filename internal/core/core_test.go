package core

import (
	"math/rand"
	"testing"

	"mecoffload/internal/dist"
	"mecoffload/internal/mec"
	"mecoffload/internal/topology"
	"mecoffload/internal/workload"
)

// testNetwork builds a paper-default network with the given size.
func testNetwork(t *testing.T, stations int, seed int64) *mec.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n, err := mec.RandomNetwork(stations, 3000, 3600, rng)
	if err != nil {
		t.Fatalf("RandomNetwork: %v", err)
	}
	return n
}

func testWorkload(t *testing.T, n, stations int, seed int64) []*mec.Request {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	reqs, err := workload.Generate(workload.Config{NumRequests: n, NumStations: stations}, rng)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return reqs
}

func TestApproFeasible(t *testing.T) {
	net := testNetwork(t, 8, 1)
	reqs := testWorkload(t, 60, 8, 2)
	rng := rand.New(rand.NewSource(3))
	res, err := Appro(net, reqs, rng, ApproOptions{})
	if err != nil {
		t.Fatalf("Appro: %v", err)
	}
	if err := Audit(net, reqs, res); err != nil {
		t.Fatalf("audit: %v", err)
	}
	if res.Served == 0 {
		t.Fatal("Appro served no requests on an uncongested network")
	}
	if res.ExpectedLPBound <= 0 {
		t.Fatalf("LP bound = %v, want > 0", res.ExpectedLPBound)
	}
}

func TestHeuFeasible(t *testing.T) {
	net := testNetwork(t, 8, 4)
	reqs := testWorkload(t, 60, 8, 5)
	rng := rand.New(rand.NewSource(6))
	res, err := Heu(net, reqs, rng, HeuOptions{})
	if err != nil {
		t.Fatalf("Heu: %v", err)
	}
	if err := Audit(net, reqs, res); err != nil {
		t.Fatalf("audit: %v", err)
	}
	if res.Served == 0 {
		t.Fatal("Heu served no requests")
	}
}

func TestExactSmall(t *testing.T) {
	// Two stations, three requests with deterministic rates; capacity
	// admits exactly one request per station, so the optimum picks the
	// two highest-reward requests.
	rng := rand.New(rand.NewSource(7))
	topo, err := topology.Waxman(topology.Config{N: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	net, err := mec.NewNetwork(mec.NetworkConfig{
		Stations: []mec.BaseStation{
			{CapacityMHz: 1000, SpeedFactor: 1},
			{CapacityMHz: 1000, SpeedFactor: 1},
		},
		Topo: topo,
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id int, reward float64) *mec.Request {
		d, err := dist.NewRateReward([]dist.Outcome{{Rate: 40, Prob: 1, Reward: reward}})
		if err != nil {
			t.Fatal(err)
		}
		return &mec.Request{
			ID:            id,
			AccessStation: 0,
			Tasks:         []mec.Task{{Name: "render", OutputKb: 100, WorkMS: 30}},
			DeadlineMS:    200,
			Dist:          d,
		}
	}
	// Rate 40 MB/s -> 800 MHz demand; only one fits per 1000 MHz station.
	reqs := []*mec.Request{mk(0, 100), mk(1, 300), mk(2, 200)}
	res, err := Exact(net, reqs, rng, ExactOptions{})
	if err != nil {
		t.Fatalf("Exact: %v", err)
	}
	if err := Audit(net, reqs, res); err != nil {
		t.Fatalf("audit: %v", err)
	}
	if res.TotalReward != 500 {
		t.Fatalf("reward = %v, want 500 (requests 1 and 2)", res.TotalReward)
	}
	if res.Decisions[0].Admitted {
		t.Fatal("lowest-reward request should be rejected")
	}
}

func TestExactBoundDominatesRealized(t *testing.T) {
	// With deterministic (single-outcome) distributions the ILP expected
	// objective equals the realizable reward, so the bound is tight.
	rng := rand.New(rand.NewSource(8))
	net := testNetwork(t, 4, 9)
	reqs := testWorkload(t, 12, 4, 10)
	res, err := Exact(net, reqs, rng, ExactOptions{})
	if err != nil {
		t.Fatalf("Exact: %v", err)
	}
	if res.ExpectedLPBound <= 0 {
		t.Fatalf("expected positive ILP bound, got %v", res.ExpectedLPBound)
	}
}

// TestApproApproximationRatio validates Theorem 1 statistically: over many
// rounding runs, the mean realized reward must clear a generous fraction
// of the 1/8 * LPOpt guarantee.
func TestApproApproximationRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	net := testNetwork(t, 6, 11)
	reqs := testWorkload(t, 40, 6, 12)
	const runs = 40
	total := 0.0
	var bound float64
	for k := 0; k < runs; k++ {
		workload.Reset(reqs)
		rng := rand.New(rand.NewSource(int64(100 + k)))
		// Passes: 1 is the literal Algorithm 1 that Theorem 1 analyzes.
		res, err := Appro(net, reqs, rng, ApproOptions{Passes: 1})
		if err != nil {
			t.Fatalf("Appro: %v", err)
		}
		if err := Audit(net, reqs, res); err != nil {
			t.Fatalf("audit run %d: %v", k, err)
		}
		total += res.TotalReward
		bound = res.ExpectedLPBound
	}
	mean := total / runs
	if mean < bound/8*0.8 { // 20% statistical slack on the 1/8 guarantee
		t.Fatalf("mean reward %v below 1/8 guarantee of LP bound %v", mean, bound)
	}
}

// TestHeuBeatsApproOnAverage: migration can only add admissions, so Heu's
// mean reward must not fall meaningfully below Appro's under congestion.
func TestHeuBeatsApproOnAverage(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	net := testNetwork(t, 5, 13)
	reqs := testWorkload(t, 80, 5, 14) // heavy load on few stations
	const runs = 25
	sumA, sumH := 0.0, 0.0
	for k := 0; k < runs; k++ {
		workload.Reset(reqs)
		rngA := rand.New(rand.NewSource(int64(200 + k)))
		ra, err := Appro(net, reqs, rngA, ApproOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sumA += ra.TotalReward

		workload.Reset(reqs)
		rngH := rand.New(rand.NewSource(int64(200 + k)))
		rh, err := Heu(net, reqs, rngH, HeuOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := Audit(net, reqs, rh); err != nil {
			t.Fatalf("heu audit run %d: %v", k, err)
		}
		sumH += rh.TotalReward
	}
	if sumH < sumA*0.95 {
		t.Fatalf("Heu mean reward %v below Appro %v", sumH/runs, sumA/runs)
	}
}

func TestApproRejectsInfeasibleDeadline(t *testing.T) {
	net := testNetwork(t, 4, 15)
	reqs := testWorkload(t, 10, 4, 16)
	// Make one request impossible to serve anywhere.
	reqs[3].DeadlineMS = 0.001
	rng := rand.New(rand.NewSource(17))
	res, err := Appro(net, reqs, rng, ApproOptions{})
	if err != nil {
		t.Fatalf("Appro: %v", err)
	}
	if res.Decisions[3].Admitted {
		t.Fatal("request with impossible deadline was admitted")
	}
	if err := Audit(net, reqs, res); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

func TestApproEmptyInputs(t *testing.T) {
	net := testNetwork(t, 3, 18)
	rng := rand.New(rand.NewSource(19))
	if _, err := Appro(net, nil, rng, ApproOptions{}); err == nil {
		t.Fatal("want error for empty workload")
	}
	if _, err := Appro(nil, testWorkload(t, 3, 3, 20), rng, ApproOptions{}); err == nil {
		t.Fatal("want error for nil network")
	}
}

func TestAuditCatchesViolations(t *testing.T) {
	net := testNetwork(t, 3, 21)
	reqs := testWorkload(t, 5, 3, 22)
	rng := rand.New(rand.NewSource(23))
	res, err := Heu(net, reqs, rng, HeuOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the total and expect the audit to object.
	res.TotalReward += 1
	if err := Audit(net, reqs, res); err == nil {
		t.Fatal("audit accepted corrupted total reward")
	}
	res.TotalReward -= 1
	// A negative wait, which the timeline audit always refused, fails the
	// offline audit too: both run one body.
	for i := range res.Decisions {
		if res.Decisions[i].Admitted {
			res.Decisions[i].WaitSlots = -1
			break
		}
	}
	if err := Audit(net, reqs, res); err == nil {
		t.Fatal("audit accepted a negative wait")
	}
}
