package sim

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mecoffload/internal/core"
	"mecoffload/internal/dist"
	"mecoffload/internal/mec"
)

// accessStub admits every pending request onto its access station: the
// simplest scheduler that exercises the full admit/settle/release ledger
// cycle deterministically.
type accessStub struct{}

func (accessStub) Name() string           { return "stub" }
func (accessStub) UncertaintyAware() bool { return false }
func (accessStub) Feedback(int, float64)  {}

func (accessStub) Schedule(eng *Engine, res *core.Result, t int, pending []int) ([]int, error) {
	reqs := eng.Requests()
	for _, j := range pending {
		r := reqs[j]
		d := &res.Decisions[j]
		d.Admitted = true
		d.Station = r.AccessStation
		d.Slot = 1
		d.TaskStations = make([]int, len(r.Tasks))
		for k := range d.TaskStations {
			d.TaskStations[k] = r.AccessStation
		}
		d.WaitSlots = t - r.ArrivalSlot
		d.LatencyMS = float64(d.WaitSlots)*eng.SlotLengthMS() + r.ServiceDelayMS(eng.Net(), r.AccessStation)
	}
	return append([]int(nil), pending...), nil
}

// liveRequest builds a deterministic single-outcome request.
func liveRequest(t testing.TB, id, arrival, station, durSlots int, rate float64) *mec.Request {
	t.Helper()
	d, err := dist.NewRateReward([]dist.Outcome{{Rate: rate, Prob: 1, Reward: 10 * rate}})
	if err != nil {
		t.Fatal(err)
	}
	return &mec.Request{
		ID:            id,
		ArrivalSlot:   arrival,
		AccessStation: station,
		Tasks:         []mec.Task{{Name: "render", OutputKb: 100, WorkMS: 10}},
		DeadlineMS:    500,
		DurationSlots: durSlots,
		Dist:          d,
	}
}

func liveTestNetwork(t testing.TB, stations int) *mec.Network {
	t.Helper()
	net, err := mec.RandomNetwork(stations, 3000, 3600, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestLiveEngineCapacityAccounting drives many admit/release cycles
// through a live engine and checks that the realized, expected, and
// backlog ledgers (a) stay within capacity bounds during the run and
// (b) return exactly to zero once every stream has departed. The daemon
// exercises this path far harder than one-shot simulations do.
func TestLiveEngineCapacityAccounting(t *testing.T) {
	net := liveTestNetwork(t, 4)
	eng, err := NewLiveEngine(net, rand.New(rand.NewSource(1)), 0)
	if err != nil {
		t.Fatal(err)
	}
	res := &core.Result{Algorithm: "stub"}

	var pending []int
	nextID := 0
	const cycles = 40
	for tick := 0; tick < cycles*10; tick++ {
		// Two new requests per slot during the first 8 slots of each
		// 10-slot cycle, holding for 3 slots each.
		if tick%10 < 8 {
			for k := 0; k < 2; k++ {
				r := liveRequest(t, nextID, tick, (nextID)%net.NumStations(), 3, 30+float64(nextID%5))
				if err := eng.Append(r); err != nil {
					t.Fatal(err)
				}
				res.Decisions = append(res.Decisions, core.Decision{RequestID: nextID, Station: -1})
				pending = append(pending, nextID)
				nextID++
			}
		}
		var rep SlotReport
		pending, rep, err = eng.Step(accessStub{}, res, tick, pending)
		if err != nil {
			t.Fatalf("slot %d: %v", tick, err)
		}
		if rep.Slot != tick {
			t.Fatalf("report slot %d, want %d", rep.Slot, tick)
		}
		for i, u := range eng.Used() {
			if u < -1e-9 {
				t.Fatalf("slot %d: station %d realized ledger negative: %v", tick, i, u)
			}
		}
		for i, u := range eng.ExpectedUsed() {
			if u < -1e-9 {
				t.Fatalf("slot %d: station %d expected ledger negative: %v", tick, i, u)
			}
		}
	}

	// Run the clock past every holding time with no arrivals: all ledgers
	// must return to exactly zero (release undoes the recorded deltas).
	last := cycles * 10
	for tick := last; tick < last+10; tick++ {
		pending, _, err = eng.Step(accessStub{}, res, tick, pending)
		if err != nil {
			t.Fatal(err)
		}
	}
	if eng.NumRunning() != 0 {
		t.Fatalf("still %d running streams after drain", eng.NumRunning())
	}
	for i, u := range eng.Used() {
		if math.Abs(u) > 1e-9 {
			t.Errorf("station %d: realized ledger %v after full drain, want 0", i, u)
		}
	}
	for i, u := range eng.ExpectedUsed() {
		if math.Abs(u) > 1e-9 {
			t.Errorf("station %d: expected ledger %v after full drain, want 0", i, u)
		}
	}
	for i, u := range eng.RunningProcMS() {
		if math.Abs(u) > 1e-9 {
			t.Errorf("station %d: backlog ledger %v after full drain, want 0", i, u)
		}
	}
	if res.Served == 0 || res.Served != res.Admitted {
		t.Fatalf("stub run served %d of %d admitted; want all served", res.Served, res.Admitted)
	}
}

// TestSnapshotRestoreRunning round-trips the in-service streams through
// RunningSnapshot and checks the rebuilt ledgers match, departures
// included.
func TestSnapshotRestoreRunning(t *testing.T) {
	net := liveTestNetwork(t, 3)
	eng, err := NewLiveEngine(net, rand.New(rand.NewSource(2)), 0)
	if err != nil {
		t.Fatal(err)
	}
	res := &core.Result{}
	var pending []int
	for id := 0; id < 6; id++ {
		r := liveRequest(t, id, 0, id%3, 5+id, 35)
		if err := eng.Append(r); err != nil {
			t.Fatal(err)
		}
		res.Decisions = append(res.Decisions, core.Decision{RequestID: id, Station: -1})
		pending = append(pending, id)
	}
	if pending, _, err = eng.Step(accessStub{}, res, 0, pending); err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("%d requests still pending", len(pending))
	}
	snaps := eng.SnapshotRunning()
	if len(snaps) != 6 {
		t.Fatalf("snapshot has %d streams, want 6", len(snaps))
	}

	clone, err := NewLiveEngine(net, rand.New(rand.NewSource(3)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := clone.RestoreRunning(snaps); err != nil {
		t.Fatal(err)
	}
	for i := range eng.Used() {
		if got, want := clone.Used()[i], eng.Used()[i]; math.Abs(got-want) > 1e-12 {
			t.Errorf("station %d: restored realized %v, want %v", i, got, want)
		}
		if got, want := clone.ExpectedUsed()[i], eng.ExpectedUsed()[i]; math.Abs(got-want) > 1e-12 {
			t.Errorf("station %d: restored expected %v, want %v", i, got, want)
		}
		if got, want := clone.RunningProcMS()[i], eng.RunningProcMS()[i]; math.Abs(got-want) > 1e-12 {
			t.Errorf("station %d: restored backlog %v, want %v", i, got, want)
		}
	}

	// Departures on the clone mirror the original: step both engines with
	// no pending work until everything drains.
	resA, resB := &core.Result{}, &core.Result{}
	for tick := 1; tick < 20; tick++ {
		var repA, repB SlotReport
		if _, repA, err = eng.Step(accessStub{}, resA, tick, nil); err != nil {
			t.Fatal(err)
		}
		if _, repB, err = clone.Step(accessStub{}, resB, tick, nil); err != nil {
			t.Fatal(err)
		}
		if len(repA.Departed) != len(repB.Departed) {
			t.Fatalf("slot %d: departures diverge: %v vs %v", tick, repA.Departed, repB.Departed)
		}
	}
	if eng.NumRunning() != 0 || clone.NumRunning() != 0 {
		t.Fatalf("streams left: original %d, clone %d", eng.NumRunning(), clone.NumRunning())
	}
	for i, u := range clone.Used() {
		if math.Abs(u) > 1e-9 {
			t.Errorf("station %d: clone ledger %v after drain", i, u)
		}
	}

	// A second restore on a non-empty engine must be rejected.
	if err := clone.RestoreRunning(snaps); err == nil {
		if clone.NumRunning() != len(snaps) {
			t.Fatal("restore on drained engine should work exactly once per engine lifetime")
		}
	}
	bad := []RunningSnapshot{{Request: 0, EndSlot: 5, ProcStation: 99}}
	fresh, _ := NewLiveEngine(net, rand.New(rand.NewSource(4)), 0)
	if err := fresh.RestoreRunning(bad); err == nil {
		t.Fatal("expected error for out-of-range station in snapshot")
	}
}

// TestRestoreRunningRefusesImpossibleStreams: a snapshot no engine could
// have written — a negative or non-finite share, expected share or
// ProcMS, a stream holding no station, expected shares off its realized
// stations, streams holding more than a station has — is refused as a
// whole: nothing is restored, so a restore can never over-commit
// capacity.
func TestRestoreRunningRefusesImpossibleStreams(t *testing.T) {
	net, err := mec.RandomNetwork(4, 3000, 3600, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for i := 0; i < net.NumStations(); i++ {
		total += net.Capacity(i)
	}
	good := RunningSnapshot{Request: 0, EndSlot: 5, Shares: map[int]float64{0: 800, 1: 200},
		ExpShares: map[int]float64{0: 700, 1: 175}, ProcStation: 0, ProcMS: 40}
	with := func(edit func(s *RunningSnapshot)) RunningSnapshot {
		s := good
		s.Shares, s.ExpShares = maps.Clone(good.Shares), maps.Clone(good.ExpShares)
		edit(&s)
		return s
	}
	inf, nan := math.Inf(1), math.NaN()
	for name, bad := range map[string]RunningSnapshot{
		"negative share":           with(func(s *RunningSnapshot) { s.Shares = map[int]float64{0: -3000}; s.ExpShares = map[int]float64{0: 0} }),
		"infinite share":           with(func(s *RunningSnapshot) { s.Shares[1] = inf }),
		"NaN share":                with(func(s *RunningSnapshot) { s.Shares[0] = nan }),
		"negative expected share":  with(func(s *RunningSnapshot) { s.ExpShares[1] = -1 }),
		"NaN expected share":       with(func(s *RunningSnapshot) { s.ExpShares[0] = nan }),
		"negative procMS":          with(func(s *RunningSnapshot) { s.ProcMS = -40 }),
		"infinite procMS":          with(func(s *RunningSnapshot) { s.ProcMS = inf }),
		"no station":               with(func(s *RunningSnapshot) { s.Shares, s.ExpShares = nil, nil }),
		"no expected shares":       with(func(s *RunningSnapshot) { s.ExpShares = nil }),
		"expected share elsewhere": with(func(s *RunningSnapshot) { s.ExpShares[2] = 10 }),
		"share out of range":       with(func(s *RunningSnapshot) { s.Shares[4], s.ExpShares[4] = 1, 1 }),
		"over capacity":            with(func(s *RunningSnapshot) { s.Shares[1] = net.Capacity(1) }),
	} {
		eng, err := NewLiveEngine(net, rand.New(rand.NewSource(2)), 0)
		if err != nil {
			t.Fatal(err)
		}
		// The bad stream comes second: the good one before it must not
		// be restored either.
		if err := eng.RestoreRunning([]RunningSnapshot{with(func(*RunningSnapshot) {}), bad}); err == nil {
			t.Errorf("%s: restored, free capacity now %.0f of %.0f MHz", name, eng.FreeCapacity(), total)
			continue
		}
		if eng.NumRunning() != 0 || eng.FreeCapacity() != total {
			t.Errorf("%s: refused restore left %d streams, %.0f of %.0f MHz free", name, eng.NumRunning(), eng.FreeCapacity(), total)
		}
	}

	eng, err := NewLiveEngine(net, rand.New(rand.NewSource(2)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RestoreRunning([]RunningSnapshot{good}); err != nil {
		t.Fatalf("a stream the engine could have written: %v", err)
	}
	if got := eng.FreeCapacity(); got != total-1000 {
		t.Fatalf("free capacity %.0f MHz after restoring 1000, want %.0f", got, total-1000)
	}
}

// TestCompactRenumbersLiveRequests: Compact keeps exactly the listed
// requests — the same values, renumbered densely in order, with their
// decisions, streams and pending places following them — and leaves the
// ledgers alone; a keep list that would drop a running or pending request
// is refused with nothing changed.
func TestCompactRenumbersLiveRequests(t *testing.T) {
	net := liveTestNetwork(t, 3)
	eng, err := NewLiveEngine(net, rand.New(rand.NewSource(5)), 0)
	if err != nil {
		t.Fatal(err)
	}
	res := &core.Result{}
	appendReq := func(id, arrival, hold int) {
		if err := eng.Append(liveRequest(t, id, arrival, id%3, hold, 35)); err != nil {
			t.Fatal(err)
		}
		res.Decisions = append(res.Decisions, core.Decision{RequestID: id, Station: -1})
	}
	var pending []int
	for id := 0; id < 6; id++ {
		appendReq(id, 0, 1+id%3) // holds 1, 2, 3, 1, 2, 3
		pending = append(pending, id)
	}
	for tick := 0; tick < 3; tick++ { // admit all six, then let the 1- and 2-slot holds depart
		if pending, _, err = eng.Step(accessStub{}, res, tick, pending); err != nil {
			t.Fatal(err)
		}
	}
	appendReq(6, 3, 2)
	appendReq(7, 3, 2)
	pending = append(pending, 6, 7)
	keep := []int{2, 5, 6, 7} // the two running 3-slot holds, the two pending
	if eng.NumRunning() != 2 {
		t.Fatalf("setup: %d running, want 2", eng.NumRunning())
	}
	old := slices.Clone(eng.Requests())
	used := slices.Clone(eng.Used())

	if _, err := eng.Compact([]int{2, 6, 7}, res, pending); err == nil {
		t.Fatal("compact dropping running request 5 succeeded")
	}
	if _, err := eng.Compact([]int{2, 5, 6}, res, pending); err == nil {
		t.Fatal("compact dropping pending request 7 succeeded")
	}
	if !slices.Equal(eng.Requests(), old) || old[5].ID != 5 || !slices.Equal(pending, []int{6, 7}) {
		t.Fatal("a refused compaction changed the engine")
	}

	if pending, err = eng.Compact(keep, res, pending); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(pending, []int{2, 3}) {
		t.Fatalf("pending renumbered to %v, want [2 3]", pending)
	}
	for k, j := range keep {
		if r := eng.Requests()[k]; r != old[j] || r.ID != k {
			t.Fatalf("request %d: not the old request %d renumbered", k, j)
		}
		if d := res.Decisions[k]; d.RequestID != k || d.Admitted != (j < 6) {
			t.Fatalf("decision %d: %+v, want request %d's", k, d, j)
		}
	}
	if len(eng.Requests()) != len(keep) || len(res.Decisions) != len(keep) {
		t.Fatalf("%d requests, %d decisions after compaction, want %d", len(eng.Requests()), len(res.Decisions), len(keep))
	}
	var running []int
	for _, s := range eng.SnapshotRunning() {
		running = append(running, s.Request)
	}
	slices.Sort(running)
	if !slices.Equal(running, []int{0, 1}) || !slices.Equal(eng.Used(), used) {
		t.Fatalf("running %v, used %v after compaction; want [0 1] and the ledger untouched %v", running, eng.Used(), used)
	}
}
