package sim

import (
	"math/rand"
	"testing"

	"mecoffload/internal/core"
	"mecoffload/internal/mec"
	"mecoffload/internal/workload"
)

// driveWithReports runs the engine slot by slot exactly as Simulate does
// but keeps every SlotReport for inspection.
func driveWithReports(t *testing.T, eng *Engine, sched Scheduler, horizon int) (*core.Result, []SlotReport) {
	t.Helper()
	res := &core.Result{Algorithm: sched.Name(), Decisions: make([]core.Decision, len(eng.Requests()))}
	for j := range res.Decisions {
		res.Decisions[j] = core.Decision{RequestID: j, Station: -1}
	}
	var (
		pending []int
		reports []SlotReport
		next    int
	)
	for t2 := 0; t2 < horizon; t2++ {
		for next < len(eng.Requests()) && eng.Requests()[next].ArrivalSlot <= t2 {
			if eng.Requests()[next].ArrivalSlot == t2 {
				pending = append(pending, next)
			}
			next++
		}
		var rep SlotReport
		var err error
		pending, rep, err = eng.Step(sched, res, t2, pending)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	return res, reports
}

// TestDriftScriptValidation: SetDrift must reject malformed scripts.
func TestDriftScriptValidation(t *testing.T) {
	net := liveTestNetwork(t, 4)
	eng, err := NewLiveEngine(net, rand.New(rand.NewSource(2)), 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string]*Drift{
		"negative handover slot": {Handovers: []Handover{{Slot: -1, From: 0, To: 1}}},
		"handover to nowhere":    {Handovers: []Handover{{Slot: 2, From: 0, To: 9}}},
		"self handover":          {Handovers: []Handover{{Slot: 2, From: 1, To: 1}}},
		"outage station range":   {Outages: []Outage{{Station: 4, Start: 0, End: 5, Scale: 0}}},
		"outage empty window":    {Outages: []Outage{{Station: 0, Start: 5, End: 5, Scale: 0}}},
		"outage scale 1":         {Outages: []Outage{{Station: 0, Start: 0, End: 5, Scale: 1}}},
		"overlap same station": {Outages: []Outage{
			{Station: 0, Start: 0, End: 10, Scale: 0},
			{Station: 0, Start: 5, End: 15, Scale: 0.5},
		}},
	}
	for name, d := range bad {
		if err := eng.SetDrift(d); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	ok := &Drift{
		Handovers: []Handover{{Slot: 3, From: 0, To: 1}},
		Outages: []Outage{
			{Station: 0, Start: 0, End: 10, Scale: 0},
			{Station: 0, Start: 10, End: 12, Scale: 0.5}, // adjacent, not overlapping
			{Station: 1, Start: 5, End: 8, Scale: 0},     // other station may overlap in time
		},
	}
	if err := eng.SetDrift(ok); err != nil {
		t.Fatalf("valid script rejected: %v", err)
	}
	if err := eng.SetDrift(nil); err != nil {
		t.Fatalf("clearing drift failed: %v", err)
	}
}

// TestOutageEvictsRunningStreams: when a station goes dark mid-run, its
// streams vanish (ledger zeroed), its capacity scale applies for exactly
// the scripted window, rewards credited at admission survive, and the
// ledger law (used == sum of running shares) holds throughout.
func TestOutageEvictsRunningStreams(t *testing.T) {
	const horizon = 60
	net, reqs := fixture(t, 3, 80, 20, 7)
	eng := loadedEngine(t, net, reqs, rand.New(rand.NewSource(3)))
	out := Outage{Station: 0, Start: 25, End: 40, Scale: 0}
	if err := eng.SetDrift(&Drift{Outages: []Outage{out}}); err != nil {
		t.Fatal(err)
	}

	var evicted []int
	rewardAtEviction := -1.0
	res := &core.Result{Algorithm: "greedy", Decisions: make([]core.Decision, len(reqs))}
	for j := range res.Decisions {
		res.Decisions[j] = core.Decision{RequestID: j, Station: -1}
	}
	var pending []int
	next := 0
	sched := &OnlineGreedy{}
	for t2 := 0; t2 < horizon; t2++ {
		for next < len(reqs) && reqs[next].ArrivalSlot <= t2 {
			if reqs[next].ArrivalSlot == t2 {
				pending = append(pending, next)
			}
			next++
		}
		var rep SlotReport
		var err error
		pending, rep, err = eng.Step(sched, res, t2, pending)
		if err != nil {
			t.Fatal(err)
		}
		if t2 == out.Start {
			evicted = rep.OutageEvicted
			rewardAtEviction = res.TotalReward
			if eng.Used()[out.Station] != 0 {
				t.Fatalf("station %d still holds %.1f MHz after full outage", out.Station, eng.Used()[out.Station])
			}
		}
		wantScale := 1.0
		if t2 >= out.Start && t2 < out.End {
			wantScale = out.Scale
		}
		if got := net.CapacityScale(out.Station); got != wantScale {
			t.Fatalf("slot %d: capacity scale %v, want %v", t2, got, wantScale)
		}
		// Ledger law under drift: used == sum of running shares.
		sums := make([]float64, net.NumStations())
		for _, ru := range eng.SnapshotRunning() {
			for st, mhz := range ru.Shares {
				sums[st] += mhz
			}
		}
		for i := range sums {
			if diff := sums[i] - eng.Used()[i]; diff > 1e-3 || diff < -1e-3 {
				t.Fatalf("slot %d station %d: running shares %.3f vs ledger %.3f", t2, i, sums[i], eng.Used()[i])
			}
		}
	}
	if len(evicted) == 0 {
		t.Fatal("outage evicted nothing — fixture never loaded station 0 (pick another seed)")
	}
	for _, j := range evicted {
		d := res.Decisions[j]
		if !d.Admitted || !d.Served || d.Reward <= 0 {
			t.Fatalf("evicted request %d lost its served standing: %+v", j, d)
		}
	}
	if rewardAtEviction <= 0 {
		t.Fatal("no reward credited before the outage")
	}
	if res.TotalReward < rewardAtEviction {
		t.Fatal("eviction clawed back credited reward")
	}
}

// TestHandoverMovesPendingQueue: a scripted handover re-points every
// pending request on the source station, the report lists them, and
// requests never see the vacated station afterward.
func TestHandoverMovesPendingQueue(t *testing.T) {
	const stations, horizon = 4, 12
	rng := rand.New(rand.NewSource(11))
	net, err := mec.RandomNetwork(stations, 3000, 3600, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Long deadlines keep arrivals pending across the handover slot.
	reqs, err := workload.Generate(workload.Config{
		NumRequests: 40, NumStations: stations,
		ArrivalHorizon: 6, DeadlineMS: 100000,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	eng := loadedEngine(t, net, reqs, rand.New(rand.NewSource(5)))
	h := Handover{Slot: 7, From: 1, To: 2}
	if err := eng.SetDrift(&Drift{Handovers: []Handover{h}}); err != nil {
		t.Fatal(err)
	}

	// A scheduler that admits nothing keeps the whole queue pending.
	sched := noopScheduler{}
	res := &core.Result{Algorithm: "noop", Decisions: make([]core.Decision, len(reqs))}
	for j := range res.Decisions {
		res.Decisions[j] = core.Decision{RequestID: j, Station: -1}
	}
	var pending []int
	next := 0
	onFromBefore := 0
	for t2 := 0; t2 < horizon; t2++ {
		for next < len(reqs) && reqs[next].ArrivalSlot <= t2 {
			if reqs[next].ArrivalSlot == t2 {
				pending = append(pending, next)
			}
			next++
		}
		if t2 == h.Slot-1 {
			for _, j := range pending {
				if reqs[j].AccessStation == h.From {
					onFromBefore++
				}
			}
		}
		var rep SlotReport
		var err error
		pending, rep, err = eng.Step(sched, res, t2, pending)
		if err != nil {
			t.Fatal(err)
		}
		if t2 == h.Slot {
			if len(rep.HandedOver) != onFromBefore {
				t.Fatalf("handed over %d requests, %d were pending on station %d", len(rep.HandedOver), onFromBefore, h.From)
			}
			for _, j := range rep.HandedOver {
				if reqs[j].AccessStation != h.To {
					t.Fatalf("request %d handed over but attached to station %d", j, reqs[j].AccessStation)
				}
			}
		}
		if t2 >= h.Slot {
			for _, j := range pending {
				if reqs[j].AccessStation == h.From {
					t.Fatalf("slot %d: request %d still pending on vacated station", t2, j)
				}
			}
		}
	}
	if onFromBefore == 0 {
		t.Fatal("no pending requests on the source station — fixture too sparse")
	}
}

// noopScheduler admits nothing; it isolates queue dynamics.
type noopScheduler struct{}

func (noopScheduler) Name() string           { return "noop" }
func (noopScheduler) UncertaintyAware() bool { return false }
func (noopScheduler) Feedback(int, float64)  {}
func (noopScheduler) Schedule(*Engine, *core.Result, int, []int) ([]int, error) {
	return nil, nil
}

// TestDriftRunDeterministic: the same seed, workload, and drift script
// must produce identical reports — the statistical suites depend on it.
func TestDriftRunDeterministic(t *testing.T) {
	run := func() ([]SlotReport, float64) {
		net, reqs := fixture(t, 3, 60, 30, 9)
		eng := loadedEngine(t, net, reqs, rand.New(rand.NewSource(13)))
		err := eng.SetDrift(&Drift{
			Handovers: []Handover{{Slot: 10, From: 0, To: 1}},
			Outages:   []Outage{{Station: 2, Start: 20, End: 35, Scale: 0}},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, reports := driveWithReports(t, eng, &OnlineGreedy{}, 50)
		return reports, res.TotalReward
	}
	ra, rewardA := run()
	rb, rewardB := run()
	if rewardA != rewardB {
		t.Fatalf("total rewards differ: %v vs %v", rewardA, rewardB)
	}
	for i := range ra {
		if len(ra[i].OutageEvicted) != len(rb[i].OutageEvicted) ||
			len(ra[i].HandedOver) != len(rb[i].HandedOver) ||
			ra[i].Reward != rb[i].Reward {
			t.Fatalf("slot %d reports differ", i)
		}
	}
}

// TestDriftMidHorizonStart: an engine stepped from a slot past a whole
// outage window must never apply the stale transition.
func TestDriftMidHorizonStart(t *testing.T) {
	net, reqs := fixture(t, 3, 20, 5, 21)
	eng := loadedEngine(t, net, reqs, rand.New(rand.NewSource(6)))
	if err := eng.SetDrift(&Drift{Outages: []Outage{{Station: 0, Start: 2, End: 5, Scale: 0}}}); err != nil {
		t.Fatal(err)
	}
	res := &core.Result{Algorithm: "noop", Decisions: make([]core.Decision, len(reqs))}
	for j := range res.Decisions {
		res.Decisions[j] = core.Decision{RequestID: j, Station: -1}
	}
	// First step happens at slot 10, after the window closed.
	if _, _, err := eng.Step(noopScheduler{}, res, 10, nil); err != nil {
		t.Fatal(err)
	}
	if got := net.CapacityScale(0); got != 1 {
		t.Fatalf("stale outage applied: scale %v", got)
	}
}
