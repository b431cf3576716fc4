package sim

import (
	"math/rand"
	"slices"
	"testing"

	"mecoffload/internal/core"
	"mecoffload/internal/mec"
	"mecoffload/internal/workload"
)

func fixture(t *testing.T, stations, requests, horizon int, seed int64) (*mec.Network, []*mec.Request) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net, err := mec.RandomNetwork(stations, 3000, 3600, rng)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(workload.Config{
		NumRequests: requests, NumStations: stations,
		GeometricRates: true, ArrivalHorizon: horizon,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return net, reqs
}

func allSchedulers(t *testing.T) map[string]func() Scheduler {
	t.Helper()
	return map[string]func() Scheduler{
		"DynamicRR": func() Scheduler {
			s, err := NewDynamicRR(DynamicRROptions{})
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"OCORP":  func() Scheduler { return &OnlineOCORP{} },
		"Greedy": func() Scheduler { return &OnlineGreedy{} },
		"HeuKKT": func() Scheduler { return &OnlineHeuKKT{} },
	}
}

// loadedEngine returns a live engine holding the whole workload reqs, for
// a test that steps it slot by slot itself.
func loadedEngine(t *testing.T, net *mec.Network, reqs []*mec.Request, rng *rand.Rand) *Engine {
	t.Helper()
	eng, err := NewLiveEngine(net, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		if err := eng.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

func TestEngineValidation(t *testing.T) {
	net, reqs := fixture(t, 4, 10, 20, 1)
	rng := rand.New(rand.NewSource(2))
	ok := RunOptions{Horizon: 10}
	if _, _, err := Simulate(nil, reqs, &OnlineOCORP{}, rng, ok); err == nil {
		t.Error("want error for nil network")
	}
	if _, _, err := Simulate(net, nil, &OnlineOCORP{}, rng, ok); err == nil {
		t.Error("want error for empty workload")
	}
	if _, _, err := Simulate(net, reqs, &OnlineOCORP{}, rng, RunOptions{}); err == nil {
		t.Error("want error for zero horizon")
	}
	if _, _, err := Simulate(net, reqs, nil, rng, ok); err == nil {
		t.Error("want error for nil scheduler")
	}
}

func TestAllSchedulersFeasibleTimeline(t *testing.T) {
	net, reqs := fixture(t, 10, 150, 60, 3)
	const horizon = 80
	for name, mk := range allSchedulers(t) {
		t.Run(name, func(t *testing.T) {
			res, rewards, err := Simulate(net, reqs, mk(), rand.New(rand.NewSource(4)), RunOptions{Horizon: horizon, Audit: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Served == 0 {
				t.Fatal("no requests served")
			}
			// Per-slot rewards must sum to the total.
			total := 0.0
			for _, r := range rewards {
				total += r
			}
			if diff := total - res.TotalReward; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("slot rewards sum %v != total %v", total, res.TotalReward)
			}
		})
	}
}

func TestDepartureFreesCapacity(t *testing.T) {
	// Two waves far apart: the second wave can only be served if the
	// first wave's departures release resources.
	net, _ := fixture(t, 4, 10, 10, 5)
	var reqs []*mec.Request
	mk := func(id, arrival int) *mec.Request {
		r := fixture2Request(t, id, arrival)
		return r
	}
	for i := 0; i < 12; i++ {
		reqs = append(reqs, mk(i, 0))
	}
	for i := 12; i < 24; i++ {
		reqs = append(reqs, mk(i, 50))
	}
	res, _, err := Simulate(net, reqs, &OnlineOCORP{}, rand.New(rand.NewSource(6)), RunOptions{Horizon: 70, Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	secondWave := 0
	for _, d := range res.Decisions[12:] {
		if d.Served {
			secondWave++
		}
	}
	if secondWave == 0 {
		t.Fatal("second wave entirely rejected: departures did not free capacity")
	}
}

// fixture2Request builds a deterministic heavy request (rate 40 = 800 MHz)
// holding for 10 slots.
func fixture2Request(t *testing.T, id, arrival int) *mec.Request {
	t.Helper()
	reqs, err := workload.Generate(workload.Config{
		NumRequests: 1, NumStations: 4, RateSupport: 1,
		MinRate: 40, MaxRate: 40, MinDurationSlots: 10, MaxDurationSlots: 10,
	}, rand.New(rand.NewSource(int64(100+id))))
	if err != nil {
		t.Fatal(err)
	}
	r := reqs[0]
	r.ID = id
	r.ArrivalSlot = arrival
	return r
}

func TestDeadlineExpiryRejects(t *testing.T) {
	// Saturate the system so some requests must wait past their wait
	// budget (deadline 200ms, slot 50ms -> at most ~2-3 slots of queueing)
	// and verify expired requests stay rejected rather than served late.
	net, reqs := fixture(t, 5, 300, 30, 7)
	res, _, err := Simulate(net, reqs, &OnlineOCORP{}, rand.New(rand.NewSource(8)), RunOptions{Horizon: 60, Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for _, d := range res.Decisions {
		if !d.Admitted {
			rejected++
		}
		if d.Served && d.LatencyMS > reqs[d.RequestID].DeadlineMS {
			t.Fatalf("request %d served past its deadline", d.RequestID)
		}
	}
	if rejected == 0 {
		t.Fatal("saturated system should reject some requests")
	}
}

func TestDynamicRRBeatsGreedyOnline(t *testing.T) {
	net, reqs := fixture(t, 20, 300, 100, 9)
	const horizon = 120
	run := func(mk func() Scheduler) float64 {
		res, _, err := Simulate(net, reqs, mk(), rand.New(rand.NewSource(10)), RunOptions{Horizon: horizon, Audit: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalReward
	}
	sch := allSchedulers(t)
	dyn := run(sch["DynamicRR"])
	grd := run(sch["Greedy"])
	if dyn <= grd {
		t.Fatalf("DynamicRR (%v) should beat online Greedy (%v)", dyn, grd)
	}
}

func TestDynamicRROptionsValidation(t *testing.T) {
	if _, err := NewDynamicRR(DynamicRROptions{MinThresholdMHz: -5, MaxThresholdMHz: 10}); err == nil {
		t.Error("want error for negative threshold")
	}
	if _, err := NewDynamicRR(DynamicRROptions{MinThresholdMHz: 100, MaxThresholdMHz: 50}); err == nil {
		t.Error("want error for inverted range")
	}
	d, err := NewDynamicRR(DynamicRROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "DynamicRR" || !d.UncertaintyAware() {
		t.Fatal("DynamicRR identity wrong")
	}
	if d.Bandit().Kappa() != 16 {
		t.Fatalf("default kappa %d, want 16", d.Bandit().Kappa())
	}
}

// TestAuditTimelineCatchesViolations: the timeline audit refuses a
// corrupted served reward, and runs core.Audit's checks on every admitted
// decision: an access station outside the network, and an admitted but
// unserved decision whose placements do not cover its pipeline.
func TestAuditTimelineCatchesViolations(t *testing.T) {
	net, reqs := fixture(t, 5, 300, 30, 7)
	res, _, err := Simulate(net, reqs, &OnlineOCORP{}, rand.New(rand.NewSource(12)), RunOptions{Horizon: 40})
	if err != nil {
		t.Fatal(err)
	}
	if err := AuditTimeline(net, reqs, res); err != nil {
		t.Fatal(err)
	}
	first := func(keep func(d *core.Decision) bool) int {
		for i := range res.Decisions {
			if keep(&res.Decisions[i]) {
				return i
			}
		}
		t.Fatal("no decision to corrupt in the run")
		return -1
	}
	for name, corrupt := range map[string]func(d []core.Decision){
		"served reward": func(d []core.Decision) {
			d[first(func(d *core.Decision) bool { return d.Served })].Reward += 5
		},
		"station": func(d []core.Decision) {
			d[first(func(d *core.Decision) bool { return d.Admitted })].Station = net.NumStations()
		},
		"unserved placements": func(d []core.Decision) {
			j := first(func(d *core.Decision) bool { return d.Admitted && !d.Served })
			d[j].TaskStations = d[j].TaskStations[:len(d[j].TaskStations)-1]
		},
	} {
		bad := *res
		bad.Decisions = slices.Clone(res.Decisions)
		corrupt(bad.Decisions)
		if err := AuditTimeline(net, reqs, &bad); err == nil {
			t.Errorf("audit accepted a corrupted %s", name)
		}
	}
}

func TestSchedulerIdentities(t *testing.T) {
	cases := []struct {
		sched Scheduler
		name  string
		aware bool
	}{
		{&OnlineOCORP{}, "OCORP", false},
		{&OnlineGreedy{}, "Greedy", false},
		{&OnlineHeuKKT{}, "HeuKKT", false},
	}
	for _, tc := range cases {
		if tc.sched.Name() != tc.name {
			t.Errorf("name %q, want %q", tc.sched.Name(), tc.name)
		}
		if tc.sched.UncertaintyAware() != tc.aware {
			t.Errorf("%s awareness %v, want %v", tc.name, tc.sched.UncertaintyAware(), tc.aware)
		}
	}
}

func TestEngineResultConsistentWithDecisions(t *testing.T) {
	net, reqs := fixture(t, 8, 100, 40, 13)
	res, _, err := Simulate(net, reqs, &OnlineGreedy{}, rand.New(rand.NewSource(14)), RunOptions{Horizon: 60})
	if err != nil {
		t.Fatal(err)
	}
	var reward float64
	var served, admitted int
	for _, d := range res.Decisions {
		if d.Admitted {
			admitted++
		}
		if d.Served {
			served++
			reward += d.Reward
		}
	}
	if admitted != res.Admitted || served != res.Served {
		t.Fatalf("counters admitted=%d/%d served=%d/%d", res.Admitted, admitted, res.Served, served)
	}
	if diff := reward - res.TotalReward; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("reward %v != %v", reward, res.TotalReward)
	}
}

// TestDynamicRRThresholdBinds: under a saturated burst, a prohibitively
// high fixed threshold must admit fewer requests per slot than a low one
// (the mechanism Algorithm 3's bandit tunes).
func TestDynamicRRThresholdBinds(t *testing.T) {
	net, reqs := fixture(t, 6, 400, 40, 91)
	const horizon = 60
	run := func(th float64) int {
		sched, err := NewDynamicRR(DynamicRROptions{
			MinThresholdMHz: th, MaxThresholdMHz: th, Kappa: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := Simulate(net, reqs, sched, rand.New(rand.NewSource(92)), RunOptions{Horizon: horizon})
		if err != nil {
			t.Fatal(err)
		}
		return res.Admitted
	}
	low, high := run(200), run(6000)
	if high >= low {
		t.Fatalf("threshold did not bind: admitted %d at 200 MHz vs %d at 6000 MHz", low, high)
	}
}

func TestEngineRejectsMalformedWorkload(t *testing.T) {
	net, reqs := fixture(t, 4, 10, 20, 93)
	rng := rand.New(rand.NewSource(94))

	opts := RunOptions{Horizon: 60}
	unsorted := workload.Clone(reqs)
	unsorted[0].ArrivalSlot = 50
	if _, _, err := Simulate(net, unsorted, &OnlineOCORP{}, rng, opts); err == nil {
		t.Error("want error for unsorted arrivals")
	}

	misnumbered := workload.Clone(reqs)
	misnumbered[3].ID = 99
	if _, _, err := Simulate(net, misnumbered, &OnlineOCORP{}, rng, opts); err == nil {
		t.Error("want error for mismatched IDs")
	}

	stray := workload.Clone(reqs)
	stray[5].AccessStation = net.NumStations()
	if _, _, err := Simulate(net, stray, &OnlineOCORP{}, rng, opts); err == nil {
		t.Error("want error for an access station outside the network")
	}
}

func TestArrivalsBeyondHorizonIgnored(t *testing.T) {
	net, reqs := fixture(t, 4, 20, 10, 95)
	// Push the last five arrivals past the horizon.
	late := workload.Clone(reqs)
	for i := 15; i < 20; i++ {
		late[i].ArrivalSlot = 100
	}
	res, _, err := Simulate(net, late, &OnlineOCORP{}, rand.New(rand.NewSource(96)), RunOptions{Horizon: 50})
	if err != nil {
		t.Fatal(err)
	}
	for i := 15; i < 20; i++ {
		if res.Decisions[i].Admitted {
			t.Fatalf("request %d arrived after the horizon but was admitted", i)
		}
	}
}
