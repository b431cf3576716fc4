package baseline_test

import (
	"math/rand"
	"slices"
	"testing"

	"mecoffload/internal/baseline"
	"mecoffload/internal/core"
	"mecoffload/internal/mec"
	"mecoffload/internal/sim"
	"mecoffload/internal/workload"
)

// fixture is an offline instance: every request arrives at slot 0.
func fixture(t *testing.T, stations, requests int, seed int64) (*mec.Network, []*mec.Request) {
	t.Helper()
	return arrivingFixture(t, stations, requests, 0, seed)
}

// arrivingFixture spreads the arrivals uniformly over [0, horizon) slots
// (horizon 0 puts them all at slot 0).
func arrivingFixture(t *testing.T, stations, requests, horizon int, seed int64) (*mec.Network, []*mec.Request) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net, err := mec.RandomNetwork(stations, 3000, 3600, rng)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(workload.Config{
		NumRequests: requests, NumStations: stations, GeometricRates: true,
		ArrivalHorizon: horizon,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return net, reqs
}

type runner func(*mec.Network, []*mec.Request, *rand.Rand) (*core.Result, error)

func runners() map[string]runner {
	return map[string]runner{
		"OCORP":  baseline.OCORP,
		"Greedy": baseline.Greedy,
		"HeuKKT": baseline.HeuKKT,
	}
}

func TestBaselinesFeasible(t *testing.T) {
	net, reqs := fixture(t, 10, 80, 1)
	for name, run := range runners() {
		t.Run(name, func(t *testing.T) {
			workload.Reset(reqs)
			res, err := run(net, reqs, rand.New(rand.NewSource(2)))
			if err != nil {
				t.Fatal(err)
			}
			if err := core.Audit(net, reqs, res); err != nil {
				t.Fatalf("audit: %v", err)
			}
			if res.Served == 0 {
				t.Fatal("baseline served nothing on an uncongested instance")
			}
			if res.Algorithm != name {
				t.Fatalf("algorithm label %q, want %q", res.Algorithm, name)
			}
		})
	}
}

func TestBaselinesRejectBadInput(t *testing.T) {
	net, reqs := fixture(t, 3, 5, 3)
	rng := rand.New(rand.NewSource(4))
	for name, run := range runners() {
		if _, err := run(nil, reqs, rng); err == nil {
			t.Errorf("%s: want error for nil network", name)
		}
		if _, err := run(net, nil, rng); err == nil {
			t.Errorf("%s: want error for empty workload", name)
		}
	}
}

func TestBaselinesNeverEvict(t *testing.T) {
	net, reqs := fixture(t, 5, 120, 5)
	for name, run := range runners() {
		workload.Reset(reqs)
		res, err := run(net, reqs, rand.New(rand.NewSource(6)))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range res.Decisions {
			if d.Evicted {
				t.Fatalf("%s evicted request %d: baselines are uncertainty-oblivious", name, d.RequestID)
			}
		}
	}
}

// TestOverloadCostsObliviousBaselines: under heavy load with uncertain
// demands, the oblivious baselines must lose some admitted requests to
// overload (served < admitted) — the mechanism behind the paper's reward
// gap.
func TestOverloadCostsObliviousBaselines(t *testing.T) {
	net, reqs := fixture(t, 10, 200, 7)
	sawLoss := false
	for _, run := range []runner{baseline.OCORP, baseline.HeuKKT} {
		workload.Reset(reqs)
		res, err := run(net, reqs, rand.New(rand.NewSource(8)))
		if err != nil {
			t.Fatal(err)
		}
		if res.Served < res.Admitted {
			sawLoss = true
		}
	}
	if !sawLoss {
		t.Fatal("expected at least one baseline to lose admitted requests to overload")
	}
}

// TestGreedyPrefersLowLatencyStations runs GreedySlot offline (once over
// the batch, nobody waiting) and online (every slot over the pending
// queue). Every admitted request's station must meet its deadline and its
// recorded latency must be its wait plus the true service delay: 0 slots
// offline, and online at least one request admitted after waiting.
func TestGreedyPrefersLowLatencyStations(t *testing.T) {
	cases := []struct {
		name   string
		online bool
		run    func(*mec.Network, []*mec.Request) (*core.Result, error)
	}{
		{"offline", false, func(net *mec.Network, reqs []*mec.Request) (*core.Result, error) {
			workload.Reset(reqs)
			return baseline.Greedy(net, reqs, rand.New(rand.NewSource(10)))
		}},
		{"online", true, func(net *mec.Network, reqs []*mec.Request) (*core.Result, error) {
			res, _, err := sim.Simulate(net, reqs, &sim.OnlineGreedy{}, rand.New(rand.NewSource(10)),
				sim.RunOptions{Horizon: 60, Audit: true})
			return res, err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, reqs := fixture(t, 10, 60, 9)
			if tc.online {
				net, reqs = arrivingFixture(t, 6, 400, 40, 9)
			}
			res, err := tc.run(net, reqs)
			if err != nil {
				t.Fatal(err)
			}
			waited := 0
			for _, d := range res.Decisions {
				if !d.Admitted {
					continue
				}
				if !tc.online && d.WaitSlots != 0 {
					t.Fatalf("request %d waited %d slots offline", d.RequestID, d.WaitSlots)
				}
				if d.WaitSlots > 0 {
					waited++
				}
				r := reqs[d.RequestID]
				want := float64(d.WaitSlots)*mec.DefaultSlotLengthMS + r.ServiceDelayMS(net, d.Station)
				if d.LatencyMS != want {
					t.Fatalf("request %d latency %v, want %v", d.RequestID, d.LatencyMS, want)
				}
				if d.LatencyMS > r.DeadlineMS {
					t.Fatalf("request %d latency %v misses its %v ms deadline", d.RequestID, d.LatencyMS, r.DeadlineMS)
				}
			}
			if tc.online && waited == 0 {
				t.Fatal("no request was admitted after waiting: the wait path went untested")
			}
		})
	}
}

// TestHeuKKTRespectsWaterLevel runs HeuKKTSlot offline, from empty
// ledgers, and online, where it must also hold every slot that places
// requests over the running streams' expected load.
func TestHeuKKTRespectsWaterLevel(t *testing.T) {
	t.Run("offline", func(t *testing.T) {
		net, reqs := fixture(t, 6, 150, 11)
		workload.Reset(reqs)
		res, err := baseline.HeuKKT(net, reqs, rand.New(rand.NewSource(12)))
		if err != nil {
			t.Fatal(err)
		}
		expected := make([]float64, net.NumStations())
		for _, d := range res.Decisions {
			if !d.Admitted {
				continue
			}
			expected[d.Station] += net.RateToMHz(reqs[d.RequestID].ExpectedRate())
		}
		checkWaterLevel(t, net, expected)
	})
	t.Run("online", func(t *testing.T) {
		net, reqs := arrivingFixture(t, 6, 300, 30, 11)
		w := &waterCheck{t: t}
		if _, _, err := sim.Simulate(net, reqs, w, rand.New(rand.NewSource(12)), sim.RunOptions{Horizon: 40}); err != nil {
			t.Fatal(err)
		}
		if w.loaded == 0 {
			t.Fatal("no slot placed requests over running streams")
		}
	})
}

// checkWaterLevel fails when a station's expected (planned) load passes
// 0.9 of its capacity.
func checkWaterLevel(t *testing.T, net *mec.Network, expected []float64) {
	t.Helper()
	for i, e := range expected {
		if e > 0.9*net.Capacity(i)+1e-6 {
			t.Fatalf("station %d planned at %.0f MHz, above the 0.9 water level of %.0f",
				i, e, net.Capacity(i))
		}
	}
}

// waterCheck is OnlineHeuKKT that checks each slot's placements, added to
// the running streams' expected load, against the water level.
type waterCheck struct {
	sim.OnlineHeuKKT
	t *testing.T
	// loaded counts the slots that placed requests over a non-empty
	// running load.
	loaded int
}

func (w *waterCheck) Schedule(eng *sim.Engine, res *core.Result, t int, pending []int) ([]int, error) {
	expected := eng.ExpectedUsed()
	running := slices.ContainsFunc(expected, func(e float64) bool { return e > 0 })
	placed, err := w.OnlineHeuKKT.Schedule(eng, res, t, pending)
	if err != nil {
		return nil, err
	}
	for _, j := range placed {
		expected[res.Decisions[j].Station] += eng.Net().RateToMHz(eng.Requests()[j].ExpectedRate())
	}
	checkWaterLevel(w.t, eng.Net(), expected)
	if running && len(placed) > 0 {
		w.loaded++
	}
	return placed, nil
}

// TestShapeFig3 reproduces the paper's Fig. 3 ordering at one congested
// point: Heu >= Appro > {HeuKKT, OCORP} > Greedy on reward, with the
// latency-greedy baselines at or below the LP algorithms on latency.
func TestShapeFig3(t *testing.T) {
	if testing.Short() {
		t.Skip("LP-heavy shape test")
	}
	net, reqs := fixture(t, 20, 300, 13)
	rewards := map[string]float64{}
	run := func(name string, f func() (*core.Result, error)) *core.Result {
		workload.Reset(reqs)
		res, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := core.Audit(net, reqs, res); err != nil {
			t.Fatalf("%s audit: %v", name, err)
		}
		rewards[name] = res.TotalReward
		return res
	}
	run("OCORP", func() (*core.Result, error) { return baseline.OCORP(net, reqs, rand.New(rand.NewSource(9))) })
	run("Greedy", func() (*core.Result, error) { return baseline.Greedy(net, reqs, rand.New(rand.NewSource(9))) })
	run("HeuKKT", func() (*core.Result, error) { return baseline.HeuKKT(net, reqs, rand.New(rand.NewSource(9))) })
	run("Appro", func() (*core.Result, error) {
		return core.Appro(net, reqs, rand.New(rand.NewSource(9)), core.ApproOptions{})
	})
	run("Heu", func() (*core.Result, error) {
		return core.Heu(net, reqs, rand.New(rand.NewSource(9)), core.HeuOptions{})
	})

	if rewards["Heu"] < rewards["Appro"]*0.97 {
		t.Errorf("Heu (%v) should not trail Appro (%v)", rewards["Heu"], rewards["Appro"])
	}
	for _, base := range []string{"OCORP", "Greedy", "HeuKKT"} {
		if rewards["Appro"] <= rewards[base] {
			t.Errorf("Appro (%v) should beat %s (%v)", rewards["Appro"], base, rewards[base])
		}
	}
	if rewards["Greedy"] >= rewards["OCORP"] {
		t.Errorf("Greedy (%v) should be the weakest baseline (OCORP %v)", rewards["Greedy"], rewards["OCORP"])
	}
}
