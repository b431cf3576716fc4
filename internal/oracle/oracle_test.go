package oracle

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mecoffload/internal/bandit"
	"mecoffload/internal/core"
	"mecoffload/internal/dist"
	"mecoffload/internal/lp"
	"mecoffload/internal/mec"
	"mecoffload/internal/sim"
	"mecoffload/internal/topology"
	"mecoffload/internal/workload"
)

// instances scales a differential runner's instance count down under
// -short (the race job's profile) while keeping the full profile at or
// above the 200-instance bar the oracle suite promises.
func instances(full int) int {
	if testing.Short() {
		n := full / 8
		if n < 4 {
			n = 4
		}
		return n
	}
	return full
}

func oracleNet(t testing.TB, stations int, seed int64) *mec.Network {
	t.Helper()
	n, err := mec.RandomNetwork(stations, 3000, 3600, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("RandomNetwork: %v", err)
	}
	return n
}

func oracleWorkload(t testing.TB, cfg workload.Config, seed int64) []*mec.Request {
	t.Helper()
	reqs, err := workload.Generate(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return reqs
}

// TestSolveDenseKnownLPs pins the dense reference simplex on handcrafted
// problems with known optima, an infeasible system, and an unbounded ray,
// so differential failures elsewhere can be attributed to the production
// side.
func TestSolveDenseKnownLPs(t *testing.T) {
	t.Run("optimal", func(t *testing.T) {
		p := lp.NewProblem(lp.Maximize)
		x := p.AddVariable("x", 3)
		y := p.AddVariable("y", 2)
		mustRow(t, p, "c1", lp.LE, 4, lp.Term{Var: x, Coef: 1}, lp.Term{Var: y, Coef: 1})
		mustRow(t, p, "c2", lp.LE, 6, lp.Term{Var: x, Coef: 1}, lp.Term{Var: y, Coef: 3})
		sol, err := SolveDense(p.Dense(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != lp.StatusOptimal {
			t.Fatalf("status %v, want optimal", sol.Status)
		}
		// Optimum at x=4, y=0: objective 12.
		if err := DiffObjectives("known optimum", sol.Objective, 12, 1e-9); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("infeasible", func(t *testing.T) {
		p := lp.NewProblem(lp.Minimize)
		x := p.AddVariable("x", 1)
		mustRow(t, p, "hi", lp.LE, 1, lp.Term{Var: x, Coef: 1})
		mustRow(t, p, "lo", lp.GE, 2, lp.Term{Var: x, Coef: 1})
		sol, err := SolveDense(p.Dense(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != lp.StatusInfeasible {
			t.Fatalf("status %v, want infeasible", sol.Status)
		}
	})
	t.Run("unbounded", func(t *testing.T) {
		p := lp.NewProblem(lp.Maximize)
		x := p.AddVariable("x", 1)
		y := p.AddVariable("y", 0)
		mustRow(t, p, "c", lp.GE, 1, lp.Term{Var: x, Coef: 1}, lp.Term{Var: y, Coef: 1})
		sol, err := SolveDense(p.Dense(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != lp.StatusUnbounded {
			t.Fatalf("status %v, want unbounded", sol.Status)
		}
	})
}

func mustRow(t *testing.T, p *lp.Problem, name string, op lp.Op, rhs float64, terms ...lp.Term) {
	t.Helper()
	if _, err := p.AddConstraint(name, op, rhs, terms...); err != nil {
		t.Fatalf("AddConstraint(%s): %v", name, err)
	}
}

// TestDiffDenseRandomLPs runs the sparse-revised-simplex-vs-dense-tableau
// differential on randomized assignment-shaped LPs.
func TestDiffDenseRandomLPs(t *testing.T) {
	n := instances(200)
	for k := 0; k < n; k++ {
		rng := rand.New(rand.NewSource(int64(1000 + k)))
		cfg := AssignLPConfig{Requests: 2 + rng.Intn(7), Stations: 2 + rng.Intn(4)}
		p := RandomAssignLP(rng, cfg)
		if p.NumVars() == 0 {
			continue
		}
		if err := DiffDense(p, 1e-6); err != nil {
			t.Fatalf("instance %d (%d req, %d st): %v", k, cfg.Requests, cfg.Stations, err)
		}
	}
}

// TestDiffDenseInfeasibleFamilies exercises the phase-1 path on both
// sides: tightened capacities plus a minimum-admission row make many
// instances infeasible, and the two solvers must agree on exactly which.
func TestDiffDenseInfeasibleFamilies(t *testing.T) {
	n := instances(200)
	infeasible := 0
	for k := 0; k < n; k++ {
		rng := rand.New(rand.NewSource(int64(5000 + k)))
		cfg := AssignLPConfig{
			Requests:        2 + rng.Intn(5),
			Stations:        2 + rng.Intn(3),
			MinAdmitted:     1 + 4*rng.Float64(),
			TightenCapacity: 0.02 + 0.3*rng.Float64(),
		}
		p := RandomAssignLP(rng, cfg)
		if p.NumVars() == 0 {
			continue
		}
		if err := DiffDense(p, 1e-6); err != nil {
			t.Fatalf("instance %d: %v", k, err)
		}
		if sol, err := p.Solve(); err == nil && sol.Status == lp.StatusInfeasible {
			infeasible++
		}
	}
	if infeasible == 0 {
		t.Fatalf("no infeasible instance in %d draws; the family no longer exercises phase 1", n)
	}
}

// TestWarmColdAgree is the warm-start differential: a basis captured on
// one instance seeds the solve of a capacity-perturbed sibling (same
// variables and rows, different RHS), and the warm solve must reach the
// cold solve's optimum.
func TestWarmColdAgree(t *testing.T) {
	n := instances(200)
	for k := 0; k < n; k++ {
		seed := int64(9000 + k)
		cfg := AssignLPConfig{Requests: 3 + k%5, Stations: 2 + k%4}
		base := RandomAssignLP(rand.New(rand.NewSource(seed)), cfg)
		if base.NumVars() == 0 {
			continue
		}
		sol, err := base.Solve()
		if err != nil {
			t.Fatalf("instance %d base solve: %v", k, err)
		}
		if sol.Status != lp.StatusOptimal || sol.Basis == nil {
			t.Fatalf("instance %d base status %v (basis %v), want optimal with basis", k, sol.Status, sol.Basis)
		}
		// Same rng seed, so identical structure; only capacity RHS moves.
		pert := cfg
		pert.TightenCapacity = 0.6 + 0.8*float64(k%7)/7
		sibling := RandomAssignLP(rand.New(rand.NewSource(seed)), pert)
		if err := DiffWarmCold(sibling, sol.Basis, 1e-6); err != nil {
			t.Fatalf("instance %d: %v", k, err)
		}
	}
}

// TestExactMatchesBruteForce cross-checks the branch-and-bound ILP
// objective against exhaustive enumeration on tiny instances: two
// implementations of ILP-RM with zero shared code.
func TestExactMatchesBruteForce(t *testing.T) {
	n := instances(200)
	for k := 0; k < n; k++ {
		seed := int64(20000 + k)
		stations := 2 + k%2
		net := oracleNet(t, stations, seed)
		reqs := oracleWorkload(t, workload.Config{
			NumRequests: 3 + k%4,
			NumStations: stations,
			RateSupport: 1 + k%3,
			MinTasks:    1,
			MaxTasks:    2,
		}, seed+1)
		res, err := core.Exact(net, reqs, rand.New(rand.NewSource(seed+2)),
			core.ExactOptions{RelativeGap: 1e-12})
		if err != nil {
			t.Fatalf("instance %d Exact: %v", k, err)
		}
		bruteObj, _ := BruteForceAssign(net, reqs, 0)
		if err := DiffObjectives("exact vs brute", res.ExpectedLPBound, bruteObj, 1e-6); err != nil {
			t.Fatalf("instance %d (%d req, %d st): %v", k, len(reqs), stations, err)
		}
	}
}

// TestBruteForceKnownOptimum pins the brute-force reference itself on the
// handcrafted instance core's tests solve exactly: capacity admits one
// request per station, so the optimum takes the two largest rewards.
func TestBruteForceKnownOptimum(t *testing.T) {
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
	reqs := []*mec.Request{mk(0, 100), mk(1, 300), mk(2, 200)}
	obj, assign := BruteForceAssign(net, reqs, 0)
	if obj != 500 {
		t.Fatalf("objective %v, want 500", obj)
	}
	if assign[0] != -1 || assign[1] < 0 || assign[2] < 0 {
		t.Fatalf("assignment %v, want request 0 rejected and 1, 2 placed", assign)
	}
	if assign[1] == assign[2] {
		t.Fatalf("requests 1 and 2 share station %d beyond capacity", assign[1])
	}
}

// TestApproAchievesLPFraction verifies Theorem 1's guarantee in aggregate
// over randomized instances: total realized reward must clear a generous
// fraction of 1/8 of the total LP bound.
func TestApproAchievesLPFraction(t *testing.T) {
	n := instances(200)
	sumReward, sumBound := 0.0, 0.0
	for k := 0; k < n; k++ {
		seed := int64(30000 + k)
		stations := 4 + k%3
		net := oracleNet(t, stations, seed)
		reqs := oracleWorkload(t, workload.Config{
			NumRequests:    20 + k%12,
			NumStations:    stations,
			GeometricRates: k%2 == 0,
		}, seed+1)
		res, err := core.Appro(net, reqs, rand.New(rand.NewSource(seed+2)), core.ApproOptions{})
		if err != nil {
			t.Fatalf("instance %d Appro: %v", k, err)
		}
		if err := core.Audit(net, reqs, res); err != nil {
			t.Fatalf("instance %d audit: %v", k, err)
		}
		if err := CheckAdmittedLoad(net, reqs, res); err != nil {
			t.Fatalf("instance %d: %v", k, err)
		}
		sumReward += res.TotalReward
		sumBound += res.ExpectedLPBound
	}
	if sumBound <= 0 {
		t.Fatal("no positive LP bound across the whole family")
	}
	if sumReward < sumBound/8*0.9 {
		t.Fatalf("aggregate reward %v below 1/8 guarantee of aggregate bound %v", sumReward, sumBound)
	}
}

// TestHeuRespectsCapacityAndLatency is a mutant catcher: on congested
// instances Heu's admitted, non-evicted requests must respect every
// station capacity under realized demand (CheckAdmittedLoad) and their
// recorded latency must meet the deadline. The oraclemutant build relaxes
// the occupancy test to 2x capacity and must fail here.
func TestHeuRespectsCapacityAndLatency(t *testing.T) {
	n := instances(200)
	for k := 0; k < n; k++ {
		seed := int64(40000 + k)
		stations := 3 + k%2
		net := oracleNet(t, stations, seed)
		reqs := oracleWorkload(t, workload.Config{
			NumRequests:    36 + k%10,
			NumStations:    stations,
			GeometricRates: k%3 == 0,
		}, seed+1)
		res, err := core.Heu(net, reqs, rand.New(rand.NewSource(seed+2)), core.HeuOptions{})
		if err != nil {
			t.Fatalf("instance %d Heu: %v", k, err)
		}
		if err := core.Audit(net, reqs, res); err != nil {
			t.Fatalf("instance %d audit: %v", k, err)
		}
		if err := CheckAdmittedLoad(net, reqs, res); err != nil {
			t.Fatalf("instance %d: %v", k, err)
		}
		for j, d := range res.Decisions {
			if !d.Admitted || d.Evicted {
				continue
			}
			if d.LatencyMS > reqs[j].DeadlineMS+1e-6 {
				t.Fatalf("instance %d request %d: latency %.3f ms exceeds deadline %.3f ms",
					k, j, d.LatencyMS, reqs[j].DeadlineMS)
			}
			if !d.Served {
				t.Fatalf("instance %d request %d: admitted by the aware Heu but neither served nor evicted", k, j)
			}
		}
	}
}

// TestDynamicRRInvariantsOnline is the other mutant catcher: full online
// runs of DynamicRR with the invariant checker installed. Every slot must
// satisfy occupancy, ledger-conservation, settlement, and C^th share-rule
// laws; the oraclemutant build overloads stations and must fail.
func TestDynamicRRInvariantsOnline(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 3
	}
	for k := 0; k < n; k++ {
		seed := int64(50000 + k)
		stations := 3 + k%3
		net := oracleNet(t, stations, seed)
		reqs := oracleWorkload(t, workload.Config{
			NumRequests:    60 + 10*(k%4),
			NumStations:    stations,
			GeometricRates: true,
			ArrivalHorizon: 20,
		}, seed+1)
		sched, err := sim.NewDynamicRR(sim.DynamicRROptions{})
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = sim.Simulate(net, reqs, sched, rand.New(rand.NewSource(seed+2)),
			sim.RunOptions{Horizon: 50, Audit: true, StepChecker: EngineChecker()})
		if err != nil {
			t.Fatalf("instance %d: %v", k, err)
		}
	}
}

// TestNaiveSchedulerInvariantsOnline runs the trusted reference scheduler
// under the same checker: the engine's settlement and ledger plumbing
// must uphold the conservation laws for an oblivious scheduler too.
func TestNaiveSchedulerInvariantsOnline(t *testing.T) {
	n := 8
	if testing.Short() {
		n = 2
	}
	for k := 0; k < n; k++ {
		seed := int64(60000 + k)
		stations := 3 + k%3
		net := oracleNet(t, stations, seed)
		reqs := oracleWorkload(t, workload.Config{
			NumRequests:    50,
			NumStations:    stations,
			ArrivalHorizon: 15,
		}, seed+1)
		_, _, err := sim.Simulate(net, reqs, NaiveScheduler{}, rand.New(rand.NewSource(seed+2)),
			sim.RunOptions{Horizon: 45, Audit: true, StepChecker: EngineChecker()})
		if err != nil {
			t.Fatalf("instance %d: %v", k, err)
		}
	}
}

// TestNaiveAdmissionSetRule pins the independent C^th re-derivation.
func TestNaiveAdmissionSetRule(t *testing.T) {
	mk := func(id int, rate float64) *mec.Request {
		d, err := dist.NewRateReward([]dist.Outcome{{Rate: rate, Prob: 1, Reward: rate}})
		if err != nil {
			t.Fatal(err)
		}
		return &mec.Request{ID: id, Dist: d}
	}
	reqs := []*mec.Request{mk(0, 50), mk(1, 30), mk(2, 40), mk(3, 30)}
	pending := []int{0, 1, 2, 3}

	// Threshold disabled: everything is a candidate.
	if got := NaiveAdmissionSet(reqs, pending, 1000, 0); len(got) != 4 {
		t.Fatalf("cth=0 allowed %d of 4", len(got))
	}
	// free/cth = 2: the two smallest expected rates, ties on id (1 then 3).
	got := NaiveAdmissionSet(reqs, pending, 1000, 500)
	if len(got) != 2 || !got[1] || !got[3] {
		t.Fatalf("nMax=2 allowed %v, want {1, 3}", got)
	}
	// No room for even one average share: empty.
	if got := NaiveAdmissionSet(reqs, pending, 400, 500); len(got) != 0 {
		t.Fatalf("nMax=0 allowed %v, want none", got)
	}
	// free/cth past MaxInt64 is clamped, not wrapped: every request.
	for _, free := range []float64{4e21, 4e300} {
		if got := NaiveAdmissionSet(reqs, pending, free, 200); len(got) != 4 {
			t.Fatalf("free %g MHz allowed %v, want all 4", free, got)
		}
	}
}

// TestCheckViolations drives the invariant checker over manufactured
// states, one broken law at a time.
func TestCheckViolations(t *testing.T) {
	net := oracleNet(t, 2, 77)
	okUsed := func() []float64 { return []float64{10, 20} }

	cases := []struct {
		name string
		st   State
		want string // substring of the error, "" for pass
	}{
		{"valid", State{Net: net, UsedMHz: okUsed()}, ""},
		{"nil network", State{UsedMHz: okUsed()}, "nil network"},
		{"ledger length", State{Net: net, UsedMHz: []float64{1}}, "stations"},
		{"negative occupancy", State{Net: net, UsedMHz: []float64{-1, 0}}, "negative"},
		{"over capacity", State{Net: net, UsedMHz: []float64{net.Capacity(0) + 1, 0}}, "exceeds capacity"},
		{"negative expected", State{Net: net, UsedMHz: okUsed(), ExpectedMHz: []float64{-2, 0}}, "expected load negative"},
		{"running twice", State{Net: net, UsedMHz: []float64{10, 0}, Running: []sim.RunningSnapshot{
			{Request: 0, Shares: map[int]float64{0: 5}},
			{Request: 0, Shares: map[int]float64{0: 5}},
		}}, "running twice"},
		{"share out of range", State{Net: net, UsedMHz: []float64{3, 0}, Running: []sim.RunningSnapshot{
			{Request: 0, Shares: map[int]float64{9: 3}},
		}}, "out of range"},
		{"ledger mismatch", State{Net: net, UsedMHz: []float64{10, 0}, Running: []sim.RunningSnapshot{
			{Request: 0, Shares: map[int]float64{0: 3}},
		}}, "shares sum"},
		{"decision mismatch", State{Net: net, UsedMHz: []float64{3, 0},
			Decisions: []core.Decision{{RequestID: 0}},
			Running: []sim.RunningSnapshot{
				{Request: 0, Shares: map[int]float64{0: 3}},
			}}, "admitted=false"},
	}
	for _, tc := range cases {
		err := Check(tc.st)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestCheckBanditBounds: a live successive-elimination policy always has
// ordered confidence bounds and an active best arm, so Check passes; the
// checker also demands at least one played arm's bounds bracket its mean.
func TestCheckBanditBounds(t *testing.T) {
	se, err := bandit.NewSuccessiveElimination(4)
	if err != nil {
		t.Fatal(err)
	}
	net := oracleNet(t, 2, 78)
	rng := rand.New(rand.NewSource(79))
	for i := 0; i < 200; i++ {
		arm := se.Select()
		reward := rng.Float64()
		if arm == 2 {
			reward += 2 // arm 2 dominates
		}
		se.Update(arm, reward)
		if err := Check(State{Net: net, UsedMHz: []float64{0, 0}, Bandit: se}); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	if se.BestArm() != 2 {
		t.Fatalf("best arm %d, want the dominating arm 2", se.BestArm())
	}
}

// TestEngineCheckerCatchesWrongKey: the checker's admission set reads each
// pending request's rate from its distribution, never from the key R_t's
// order reads. Two pending requests on one station whose threshold leaves
// room for one: with keys that swap their expected rates, R_t picks the
// one with the larger true rate and the checker refuses the slot; with
// true keys the same slot admits the smaller and passes.
func TestEngineCheckerCatchesWrongKey(t *testing.T) {
	for _, tc := range []struct {
		name      string
		keyRates  [2]float64
		wantError bool
	}{
		{"true keys", [2]float64{30, 40}, false},
		{"swapped keys", [2]float64{50, 20}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := oracleNet(t, 1, 5)
			reqs := make([]*mec.Request, 2)
			for j, rate := range []float64{30, 40} {
				d, err := dist.NewRateReward([]dist.Outcome{{Rate: rate, Prob: 1, Reward: 500}})
				if err != nil {
					t.Fatal(err)
				}
				reqs[j] = &mec.Request{Tasks: []mec.Task{{Name: "render", OutputKb: 100, WorkMS: 30}}, DeadlineMS: 500, DurationSlots: 2, Dist: d}
			}
			eng, err := sim.NewLiveEngine(net, rand.New(rand.NewSource(1)), 0)
			if err != nil {
				t.Fatal(err)
			}
			eng.SetBuilder(func(j int, _ sim.Key) *mec.Request { return reqs[j].CloneShallow() })
			eng.SetStepChecker(EngineChecker())
			res := &core.Result{}
			for j := range reqs {
				k := sim.KeyOf(reqs[j])
				k.ExpectedRate = tc.keyRates[j]
				if err := eng.AppendKey(k); err != nil {
					t.Fatal(err)
				}
				res.Decisions = append(res.Decisions, core.Decision{RequestID: j, Station: -1})
			}
			cth := 0.6 * net.Capacity(0) // room for one request in R_t
			drr, err := sim.NewDynamicRR(sim.DynamicRROptions{MinThresholdMHz: cth, MaxThresholdMHz: cth, Kappa: 1, RoundingDenominator: 1})
			if err != nil {
				t.Fatal(err)
			}
			_, rep, err := eng.Step(drr, res, 0, []int{0, 1})
			if tc.wantError {
				if err == nil || !strings.Contains(err.Error(), "share rule") {
					t.Fatalf("slot admitted %v under swapped keys; checker said %v", rep.Admitted, err)
				}
				return
			}
			if err != nil || !slices.Equal(rep.Admitted, []int{0}) {
				t.Fatalf("true keys: admitted %v, checker said %v; want request 0 admitted", rep.Admitted, err)
			}
		})
	}
}

// admitNone is a scheduler that leaves every pending request pending.
type admitNone struct{}

func (admitNone) Name() string                                                  { return "none" }
func (admitNone) UncertaintyAware() bool                                        { return false }
func (admitNone) Schedule(*sim.Engine, *core.Result, int, []int) ([]int, error) { return nil, nil }
func (admitNone) Feedback(int, float64)                                         {}

// TestEngineCheckerCatchesWrongExpiry: the checker re-derives expiry from
// each request's own deadline, never from the key the engine files its cut
// from. A request that can meet its deadline at a wait of 0 slots but not
// of 1 waits unadmitted: with its true key it expires at slot 1 and the
// checker passes; a key with a later deadline keeps it pending at slot 1,
// and one with an earlier deadline expires it at slot 0, and the checker
// refuses either slot.
func TestEngineCheckerCatchesWrongExpiry(t *testing.T) {
	net := oracleNet(t, 1, 5)
	tasks := []mec.Task{{Name: "render", OutputKb: 100, WorkMS: 30}}
	service := net.ServiceDelayMS(0, tasks, 0)
	deadline := service + 10 // met at a wait of 0 slots, missed at 1
	for _, tc := range []struct {
		name       string
		keyMS      float64
		wantError  string
		wantExpiry []int // at slot 1
	}{
		{"true key", deadline, "", []int{0}},
		{"later deadline", deadline + 100, "stayed pending", nil},
		{"earlier deadline", service - 1, "expired while", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := dist.NewRateReward([]dist.Outcome{{Rate: 30, Prob: 1, Reward: 500}})
			if err != nil {
				t.Fatal(err)
			}
			req := &mec.Request{Tasks: tasks, DeadlineMS: deadline, DurationSlots: 2, Dist: d}
			eng, err := sim.NewLiveEngine(net, rand.New(rand.NewSource(1)), 0)
			if err != nil {
				t.Fatal(err)
			}
			eng.SetBuilder(func(int, sim.Key) *mec.Request { return req.CloneShallow() })
			eng.SetStepChecker(EngineChecker())
			k := sim.KeyOf(req)
			k.DeadlineMS = tc.keyMS
			if err := eng.AppendKey(k); err != nil {
				t.Fatal(err)
			}
			res := &core.Result{Decisions: []core.Decision{{RequestID: 0, Station: -1}}}
			pending := []int{0}
			var rep sim.SlotReport
			for slot := 0; slot < 2 && err == nil; slot++ {
				pending, rep, err = eng.Step(admitNone{}, res, slot, pending)
			}
			if tc.wantError != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantError) {
					t.Fatalf("key deadline %v ms against the request's %v: checker said %v, want %q", tc.keyMS, deadline, err, tc.wantError)
				}
				return
			}
			if err != nil || !slices.Equal(rep.Expired, tc.wantExpiry) {
				t.Fatalf("true key: slot 1 expired %v, checker said %v; want %v expired", rep.Expired, err, tc.wantExpiry)
			}
		})
	}
}

// hideAdmission admits the first pending request on its access station
// and, when hide is set, leaves it out of what it returns.
type hideAdmission struct{ hide bool }

func (hideAdmission) Name() string           { return "hide" }
func (hideAdmission) UncertaintyAware() bool { return false }
func (hideAdmission) Feedback(int, float64)  {}
func (h hideAdmission) Schedule(eng *sim.Engine, res *core.Result, t int, pending []int) ([]int, error) {
	j := pending[0]
	r := eng.Build(pending)[j]
	d := &res.Decisions[j]
	d.Admitted, d.Station, d.Slot, d.WaitSlots = true, r.AccessStation, t, t-r.ArrivalSlot
	d.TaskStations = make([]int, len(r.Tasks))
	for k := range d.TaskStations {
		d.TaskStations[k] = r.AccessStation
	}
	d.LatencyMS = float64(d.WaitSlots)*eng.SlotLengthMS() + r.ServiceDelayMS(eng.Net(), r.AccessStation)
	if h.hide {
		return nil, nil
	}
	return []int{j}, nil
}

// TestEngineCheckerCatchesUnreportedAdmission: the daemon learns of an
// admission only from SlotReport.Admitted, which lists what the scheduler
// returns, so a scheduler that admits a request without returning it
// leaves the request's row waiting for a decision that never comes. The
// checker must refuse that slot, and pass the same admission once it is
// returned.
func TestEngineCheckerCatchesUnreportedAdmission(t *testing.T) {
	for _, hide := range []bool{false, true} {
		net := oracleNet(t, 2, 5)
		reqs := oracleWorkload(t, workload.Config{NumRequests: 3, NumStations: 2, ArrivalHorizon: 1}, 6)
		eng, err := sim.NewLiveEngine(net, rand.New(rand.NewSource(1)), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range reqs {
			if err := eng.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		eng.SetStepChecker(EngineChecker())
		res := core.NewResult("hide", len(reqs))
		_, rep, err := eng.Step(hideAdmission{hide: hide}, res, 0, []int{0, 1, 2})
		switch {
		case hide && (err == nil || !strings.Contains(err.Error(), "not reported")):
			t.Fatalf("an unreported admission passed the checker: %v", err)
		case !hide && (err != nil || !slices.Equal(rep.Admitted, []int{0})):
			t.Fatalf("a reported admission: admitted %v, checker said %v; want request 0 admitted", rep.Admitted, err)
		}
	}
}
