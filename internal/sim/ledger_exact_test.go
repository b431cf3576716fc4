package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mecoffload/internal/core"
	"mecoffload/internal/mec"
)

// ledgersFromHolds rebuilds the realized and expected ledgers from zero
// out of e's live holds, newest stream first: the reverse of the order
// settle booked them in.
func ledgersFromHolds(e *Engine) (used, expected []float64) {
	used = make([]float64, e.net.NumStations())
	expected = make([]float64, e.net.NumStations())
	for i := len(e.active) - 1; i >= 0; i-- {
		for _, h := range e.active[i].holds {
			used[h.station] += h.mhz
			expected[h.station] += h.exp
		}
	}
	return used, expected
}

// checkLedgersExact reports the first station whose realized or expected
// ledger differs, in any bit, from the one rebuilt from e's live holds,
// or that is not exactly 0 while no stream runs.
func checkLedgersExact(e *Engine) error {
	used, expected := ledgersFromHolds(e)
	for _, c := range []struct {
		name      string
		got, want []float64
	}{
		{"Used", e.Used(), used},
		{"ExpectedUsed", e.ExpectedUsed(), expected},
	} {
		if err := sameBits(c.got, c.want); err != nil {
			return fmt.Errorf("%s against its live holds: %w", c.name, err)
		}
		if e.NumRunning() > 0 {
			continue
		}
		for i, v := range c.got {
			if math.Float64bits(v) != 0 {
				return fmt.Errorf("%s: station %d holds %v with no stream running", c.name, i, v)
			}
		}
	}
	return nil
}

// exactRun is one live DynamicRR engine in TestLedgersExactUnderInterleaving
// with the caller-side state a serving planner keeps.
type exactRun struct {
	net     *mec.Network
	rng     *rand.Rand
	drift   *Drift
	sched   Scheduler
	eng     *Engine
	res     *core.Result
	pending []int
}

// keep lists the pending and running requests in ascending id order.
func (x *exactRun) keep() []int {
	keep := slices.Clone(x.pending)
	for _, ru := range x.eng.active {
		keep = append(keep, ru.req)
	}
	slices.Sort(keep)
	return keep
}

// rebuild moves the pending and running requests into a fresh engine
// under dense ids, restoring the streams from SnapshotRunning: the
// compaction a planner without an in-place Compact performs.
func (x *exactRun) rebuild() error {
	running := x.eng.SnapshotRunning()
	keep := x.keep()
	fresh, err := NewLiveEngine(x.net, x.rng, 0)
	if err != nil {
		return err
	}
	if err := fresh.SetDrift(x.drift); err != nil {
		return err
	}
	res := &core.Result{Algorithm: x.res.Algorithm}
	remap := make(map[int]int, len(keep))
	for id, j := range keep {
		r := *x.eng.reqs[j] // a struct copy keeps the realized rate
		r.ID = id
		if err := fresh.Append(&r); err != nil {
			return err
		}
		remap[j] = id
		res.Decisions = append(res.Decisions, core.Decision{RequestID: id, Station: -1})
	}
	for i := range running {
		id := remap[running[i].Request]
		running[i].Request = id
		res.Decisions[id].Admitted, res.Decisions[id].Served = true, true
	}
	if err := fresh.RestoreRunning(running); err != nil {
		return err
	}
	for i, j := range x.pending {
		x.pending[i] = remap[j]
	}
	x.eng, x.res = fresh, res
	return nil
}

// exactCoverage counts what an exact-ledger run exercised.
type exactCoverage struct {
	admitted, evicted, departed, outageEvicted, compacted, rebuilt, drained int
}

// TestLedgersExactUnderInterleaving drives a live DynamicRR engine from a
// seed through a random interleaving of scheduling steps (admissions and
// evictions of overflowing streams), departures, outage evictions,
// in-place compactions and SnapshotRunning → RestoreRunning rebuilds into
// a fresh engine. After every step and every compaction the realized and
// expected ledgers must equal, bit for bit, the ledgers rebuilt from zero
// out of the live holds in the opposite order, and must be exactly 0 on
// every station whenever no stream runs.
func TestLedgersExactUnderInterleaving(t *testing.T) {
	var all exactCoverage
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cov := ledgerExactRun(t, seed)
			t.Logf("%+v", cov)
			all.admitted += cov.admitted
			all.evicted += cov.evicted
			all.departed += cov.departed
			all.outageEvicted += cov.outageEvicted
			all.compacted += cov.compacted
			all.rebuilt += cov.rebuilt
			all.drained += cov.drained
		})
	}
	if all.admitted == 0 || all.evicted == 0 || all.departed == 0 || all.outageEvicted == 0 ||
		all.compacted == 0 || all.rebuilt == 0 || all.drained == 0 {
		t.Fatalf("the runs missed a ledger path: %+v", all)
	}
}

func ledgerExactRun(t *testing.T, seed int64) exactCoverage {
	const arrivals = 60
	net, reqs := fixture(t, 4, 300, arrivals, seed)
	ops := rand.New(rand.NewSource(seed + 200))
	drr, err := NewDynamicRR(DynamicRROptions{})
	if err != nil {
		t.Fatal(err)
	}
	x := &exactRun{
		net: net, rng: rand.New(rand.NewSource(seed + 100)), sched: drr,
		res: &core.Result{Algorithm: drr.Name()},
		drift: &Drift{Outages: []Outage{
			{Station: int(seed) % 4, Start: 25, End: 40, Scale: 0},
			{Station: int(seed+1) % 4, Start: 45, End: 55, Scale: 0.5},
		}},
	}
	if x.eng, err = NewLiveEngine(net, x.rng, 0); err != nil {
		t.Fatal(err)
	}
	if err := x.eng.SetDrift(x.drift); err != nil {
		t.Fatal(err)
	}
	var cov exactCoverage
	next := 0
	for slot := 0; next < len(reqs) || len(x.pending) > 0 || x.eng.NumRunning() > 0; slot++ {
		if slot > 10*arrivals {
			t.Fatalf("slot %d: %d streams still running", slot, x.eng.NumRunning())
		}
		for next < len(reqs) && reqs[next].ArrivalSlot <= slot {
			r := *reqs[next]
			r.ID = len(x.eng.reqs)
			if err := x.eng.Append(&r); err != nil {
				t.Fatal(err)
			}
			x.res.Decisions = append(x.res.Decisions, core.Decision{RequestID: r.ID, Station: -1})
			x.pending = append(x.pending, r.ID)
			next++
		}
		var rep SlotReport
		if x.pending, rep, err = x.eng.Step(x.sched, x.res, slot, x.pending); err != nil {
			t.Fatal(err)
		}
		cov.admitted += len(rep.Admitted)
		cov.departed += len(rep.Departed)
		cov.outageEvicted += len(rep.OutageEvicted)
		for _, j := range rep.Admitted {
			if x.res.Decisions[j].Evicted {
				cov.evicted++
			}
		}
		if err := checkLedgersExact(x.eng); err != nil {
			t.Fatalf("slot %d, stepped: %v", slot, err)
		}
		if x.eng.NumRunning() == 0 && slot > arrivals {
			cov.drained++
		}
		switch ops.Intn(5) {
		case 0:
			if x.pending, err = x.eng.Compact(x.keep(), x.res, x.pending); err != nil {
				t.Fatal(err)
			}
			cov.compacted++
		case 1:
			if err := x.rebuild(); err != nil {
				t.Fatalf("slot %d, rebuilding: %v", slot, err)
			}
			cov.rebuilt++
		default:
			continue
		}
		if err := checkLedgersExact(x.eng); err != nil {
			t.Fatalf("slot %d, compacted: %v", slot, err)
		}
	}
	return cov
}

// TestRestoreOffGridSharesDrainsToZero restores streams whose shares,
// expected shares and backlog figures lie off the mec.Quantum grid, as a
// snapshot written before the grid holds them, one station filled to its
// capacity by three of them. The restore must accept them, keep the
// ledgers equal to the holds bit for bit, and release every stream back
// to exactly 0.
func TestRestoreOffGridSharesDrainsToZero(t *testing.T) {
	net, _ := fixture(t, 3, 1, 10, 4)
	c := net.Capacity(0)
	third := c / 3
	snaps := []RunningSnapshot{
		{Request: 0, EndSlot: 2, Shares: map[int]float64{0: third, 1: 0.1}, ExpShares: map[int]float64{0: 1.0 / 3, 1: 0.7}, ProcStation: 0, ProcMS: 0.1},
		{Request: 1, EndSlot: 3, Shares: map[int]float64{0: third}, ExpShares: map[int]float64{0: 2.0 / 3}, ProcStation: 0, ProcMS: 0.2},
		{Request: 2, EndSlot: 5, Shares: map[int]float64{0: c - third - third, 2: 100.0 / 7}, ExpShares: map[int]float64{0: 1e-3, 2: 3.3}, ProcStation: 2, ProcMS: 0.3},
		{Request: 3, EndSlot: 5, Shares: map[int]float64{1: 12.3, 2: 45.6}, ExpShares: map[int]float64{1: 7.7, 2: 8.9}, ProcStation: 1, ProcMS: 1.0 / 3},
	}
	eng, err := NewLiveEngine(net, rand.New(rand.NewSource(1)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RestoreRunning(snaps); err != nil {
		t.Fatalf("restoring off-grid shares: %v", err)
	}
	for _, ru := range eng.active {
		for _, v := range append([]float64{ru.procMS}, holdValues(ru.holds)...) {
			if v != mec.Quantize(v) {
				t.Fatalf("request %d restored %v, off the grid", ru.req, v)
			}
		}
	}
	if err := checkLedgersExact(eng); err != nil {
		t.Fatalf("restored: %v", err)
	}
	for slot := 1; eng.NumRunning() > 0; slot++ {
		if _, _, err := eng.Step(noopScheduler{}, &core.Result{}, slot, nil); err != nil {
			t.Fatal(err)
		}
		if err := checkLedgersExact(eng); err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
	}
	for i, v := range eng.RunningProcMS() {
		if math.Float64bits(v) != 0 {
			t.Errorf("station %d: backlog ledger %v after the drain, want 0", i, v)
		}
	}
}

// holdValues lists every realized and expected MHz in holds.
func holdValues(holds []hold) []float64 {
	var out []float64
	for _, h := range holds {
		out = append(out, h.mhz, h.exp)
	}
	return out
}
