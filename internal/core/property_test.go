package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mecoffload/internal/mec"
	"mecoffload/internal/workload"
)

// TestAuditHoldsOnRandomInstances is the repository's broadest invariant:
// on arbitrary random instances, every algorithm's output passes the
// physical feasibility audit (capacity by realized served demand, latency
// requirements, reward accounting, counter balance).
func TestAuditHoldsOnRandomInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("LP-heavy property test")
	}
	cfg := &quick.Config{MaxCount: 12}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		stations := 3 + rng.Intn(6)
		requests := 10 + rng.Intn(60)
		net, err := mec.RandomNetwork(stations, 2000+rng.Float64()*1000, 3600, rng)
		if err != nil {
			return false
		}
		wcfg := workload.Config{
			NumRequests:    requests,
			NumStations:    stations,
			GeometricRates: rng.Intn(2) == 0,
			RateSupport:    1 + rng.Intn(7),
			MinTasks:       1 + rng.Intn(3),
			MaxTasks:       4,
		}
		reqs, err := workload.Generate(wcfg, rng)
		if err != nil {
			return false
		}
		type runner func() (*Result, error)
		algs := map[string]runner{
			"appro": func() (*Result, error) {
				return Appro(net, reqs, rand.New(rand.NewSource(seed+1)), ApproOptions{})
			},
			"appro-1pass": func() (*Result, error) {
				return Appro(net, reqs, rand.New(rand.NewSource(seed+2)), ApproOptions{Passes: 1})
			},
			"heu": func() (*Result, error) {
				return Heu(net, reqs, rand.New(rand.NewSource(seed+3)), HeuOptions{})
			},
		}
		for name, run := range algs {
			workload.Reset(reqs)
			res, err := run()
			if err != nil {
				t.Logf("seed %d %s: %v", seed, name, err)
				return false
			}
			if err := Audit(net, reqs, res); err != nil {
				t.Logf("seed %d %s audit: %v", seed, name, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestEvaluateIdempotent: evaluating twice must not change anything (the
// second pass sees the same realizations and placements).
func TestEvaluateIdempotent(t *testing.T) {
	net := testNetwork(t, 5, 40)
	reqs := testWorkload(t, 30, 5, 41)
	rng := rand.New(rand.NewSource(42))
	res, err := Appro(net, reqs, rng, ApproOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := *res
	beforeDecisions := append([]Decision(nil), res.Decisions...)
	Evaluate(net, reqs, res, rng)
	if res.TotalReward != before.TotalReward || res.Served != before.Served || res.Admitted != before.Admitted {
		t.Fatalf("Evaluate not idempotent: %+v vs %+v", res, &before)
	}
	for i := range res.Decisions {
		if res.Decisions[i].Served != beforeDecisions[i].Served ||
			res.Decisions[i].Reward != beforeDecisions[i].Reward ||
			res.Decisions[i].Evicted != beforeDecisions[i].Evicted {
			t.Fatalf("decision %d changed on re-evaluation", i)
		}
	}
}

// TestZeroCapacityStationRejected: network construction must refuse
// zero-capacity stations rather than let algorithms divide by zero.
func TestZeroCapacityStationRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	if _, err := mec.RandomNetwork(0, 3000, 3600, rng); err == nil {
		t.Error("want error for zero stations")
	}
}

// TestDisconnectedNetworkStillWorks: mec.RandomNetwork guarantees
// connectivity, but a hand-built network with an unreachable station must
// degrade gracefully — the unreachable station is simply delay-infeasible
// for remote users.
func TestDisconnectedNetworkNotUsed(t *testing.T) {
	// A 1-station "network" is trivially connected; instead verify that a
	// request whose access station cannot reach any feasible station gets
	// rejected rather than crashing.
	net := testNetwork(t, 4, 44)
	reqs := testWorkload(t, 8, 4, 45)
	for _, r := range reqs {
		r.DeadlineMS = 1 // nothing is feasible within 1 ms
	}
	res, err := Heu(net, reqs, rand.New(rand.NewSource(46)), HeuOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted != 0 {
		t.Fatalf("admitted %d requests with impossible deadlines", res.Admitted)
	}
	if err := Audit(net, reqs, res); err != nil {
		t.Fatal(err)
	}
}
