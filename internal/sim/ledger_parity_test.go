package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mecoffload/internal/core"
	"mecoffload/internal/mec"
)

// refStream is a running stream as a map-based ledger records it: a
// station -> MHz map each for the realized and the expected shares.
type refStream struct {
	req, endSlot      int
	shares, expShares map[int]float64
	procStation       int
	procMS            float64
}

// refLedger keeps the engine's three ledgers with map-based streams, by
// the arithmetic the engine used before its streams became runs of holds:
// settle sums each stream's task shares into maps in TaskStations order,
// and release, eviction and restore range over the maps. The shares are
// mec.Network.TaskMHz's and the backlog figures are quantized, as the
// engine's are, and nothing is clamped.
type refLedger struct {
	used, expected, procMS []float64
	active                 []refStream
}

func newRefLedger(stations int) *refLedger {
	return &refLedger{
		used:     make([]float64, stations),
		expected: make([]float64, stations),
		procMS:   make([]float64, stations),
	}
}

func cloneMap(m map[int]float64) map[int]float64 {
	out := make(map[int]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func (l *refLedger) undo(ru refStream) {
	for st, mhz := range ru.shares {
		l.used[st] -= mhz
	}
	for st, mhz := range ru.expShares {
		l.expected[st] -= mhz
	}
	l.procMS[ru.procStation] -= ru.procMS
}

func (l *refLedger) release(t int) {
	keep := l.active[:0]
	for _, ru := range l.active {
		if ru.endSlot > t {
			keep = append(keep, ru)
			continue
		}
		l.undo(ru)
	}
	l.active = keep
}

func (l *refLedger) evictStation(st int) {
	keep := l.active[:0]
	for _, ru := range l.active {
		if _, hit := ru.shares[st]; !hit {
			keep = append(keep, ru)
			continue
		}
		l.undo(ru)
	}
	l.active = keep
}

// settle replays the engine's settlement of admitted, reading each
// request's outcome from the draw the engine made.
func (l *refLedger) settle(e *Engine, res *core.Result, t int, admitted []int, aware bool) {
	type member struct {
		req    int
		shares map[int]float64
	}
	var batch []member
	for _, j := range admitted {
		d := &res.Decisions[j]
		if !d.Admitted || d.Evicted {
			continue
		}
		r := e.reqs[j]
		out, _ := r.Realized()
		shares := make(map[int]float64, len(d.TaskStations))
		for k, st := range d.TaskStations {
			shares[st] += e.net.TaskMHz(r, k, out.Rate)
		}
		if !aware {
			for st, mhz := range shares {
				l.used[st] += mhz
			}
		}
		batch = append(batch, member{req: j, shares: shares})
	}
	overloaded := make([]bool, len(l.used))
	for i := range overloaded {
		overloaded[i] = l.used[i] > e.net.Capacity(i)
	}
	for _, m := range batch {
		d := &res.Decisions[m.req]
		r := e.reqs[m.req]
		ok := d.LatencyMS <= r.DeadlineMS+1e-9
		for st := range m.shares {
			if overloaded[st] {
				ok = false
			}
		}
		if !ok {
			for st, mhz := range m.shares {
				l.used[st] -= mhz
			}
			continue
		}
		ru := refStream{
			req:         m.req,
			endSlot:     t + r.HoldSlots(),
			shares:      m.shares,
			expShares:   make(map[int]float64, len(m.shares)),
			procStation: d.TaskStations[0],
		}
		for k, st := range d.TaskStations {
			ru.expShares[st] += e.net.TaskMHz(r, k, r.ExpectedRate())
		}
		for st, mhz := range ru.expShares {
			l.expected[st] += mhz
		}
		if station, err := e.net.Station(ru.procStation); err == nil {
			ru.procMS = mec.Quantize(r.ProcDelayMS(station))
			l.procMS[ru.procStation] += ru.procMS
		}
		l.active = append(l.active, ru)
	}
}

func (l *refLedger) restore(snaps []RunningSnapshot) {
	for _, s := range snaps {
		ru := refStream{req: s.Request, endSlot: s.EndSlot, shares: cloneMap(s.Shares),
			expShares: cloneMap(s.ExpShares), procStation: s.ProcStation, procMS: s.ProcMS}
		for st, mhz := range ru.shares {
			l.used[st] += mhz
		}
		for st, mhz := range ru.expShares {
			l.expected[st] += mhz
		}
		l.procMS[ru.procStation] += ru.procMS
		l.active = append(l.active, ru)
	}
}

func (l *refLedger) snapshot() []RunningSnapshot {
	out := make([]RunningSnapshot, 0, len(l.active))
	for _, ru := range l.active {
		out = append(out, RunningSnapshot{Request: ru.req, EndSlot: ru.endSlot, Shares: cloneMap(ru.shares),
			ExpShares: cloneMap(ru.expShares), ProcStation: ru.procStation, ProcMS: ru.procMS})
	}
	return out
}

// check reports the first difference between the engine's ledgers and
// running streams and the reference's: the ledgers bit for bit, the
// snapshots deep-equal.
func (l *refLedger) check(e *Engine) error {
	for _, c := range []struct {
		name      string
		got, want []float64
	}{
		{"Used", e.Used(), l.used},
		{"ExpectedUsed", e.ExpectedUsed(), l.expected},
		{"RunningProcMS", e.RunningProcMS(), l.procMS},
	} {
		if err := sameBits(c.got, c.want); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
	}
	if got, want := e.SnapshotRunning(), l.snapshot(); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("SnapshotRunning = %+v, reference %+v", got, want)
	}
	return nil
}

func sameBits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d stations, reference %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("station %d: %v, reference %v (%+e apart)", i, got[i], want[i], got[i]-want[i])
		}
	}
	return nil
}

// ledgerTap wraps a scheduler and records what the reference cannot
// recompute: the ledgers the scheduler found, the realized ledger it left
// (an uncertainty-aware scheduler books its admissions itself) and the
// admissions it returned.
type ledgerTap struct {
	Scheduler
	ran       bool
	before    *refLedger
	usedAfter []float64
	admitted  []int
}

func (s *ledgerTap) Schedule(e *Engine, res *core.Result, t int, pending []int) ([]int, error) {
	s.ran = true
	s.before = &refLedger{used: append([]float64(nil), e.Used()...), expected: e.ExpectedUsed(), procMS: e.RunningProcMS()}
	admitted, err := s.Scheduler.Schedule(e, res, t, pending)
	s.usedAfter = append([]float64(nil), e.Used()...)
	s.admitted = append([]int(nil), admitted...)
	return admitted, err
}

// ledgerCoverage counts what a parity run exercised.
type ledgerCoverage struct {
	streams, spread, stacked, dropped, outageEvicted, restored int
}

// TestLedgerParityWithMapReference drives random slots under every online
// scheduler — DynamicRR's consolidated and split placements (overflow
// splitter, task migrator, distribution pass), the oblivious baselines'
// overload drops, and outages evicting running streams — and after every
// step asserts that the engine's ledgers are bit-identical to a map-based
// reference and that SnapshotRunning is deep-equal to it. Every tenth
// slot the running streams also round-trip through SnapshotRunning and
// RestoreRunning into a fresh engine, which must agree with the
// reference's restore and then release bit for bit as it drains.
func TestLedgerParityWithMapReference(t *testing.T) {
	const horizon = 90
	covs := map[string]*ledgerCoverage{}
	for seed := int64(1); seed <= 4; seed++ {
		for name, mk := range allSchedulers(t) {
			if covs[name] == nil {
				covs[name] = &ledgerCoverage{}
			}
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				ledgerParityRun(t, mk(), seed, horizon, covs[name])
			})
		}
	}
	var all ledgerCoverage
	for name, c := range covs {
		t.Logf("%s: %+v", name, *c)
		all.stacked += c.stacked
		all.dropped += c.dropped
		all.outageEvicted += c.outageEvicted
		all.restored += c.restored
	}
	if covs["DynamicRR"].spread == 0 || all.stacked == 0 || all.dropped == 0 || all.outageEvicted == 0 || all.restored == 0 {
		t.Fatalf("the runs missed a ledger path: DynamicRR %+v, all %+v", *covs["DynamicRR"], all)
	}
}

func ledgerParityRun(t *testing.T, sched Scheduler, seed int64, horizon int, cov *ledgerCoverage) {
	net, reqs := fixture(t, 4, 240, 60, seed)
	eng := loadedEngine(t, net, reqs, rand.New(rand.NewSource(seed+100)))
	// One outage start per slot, so the reference evicts in the engine's
	// order.
	outages := []Outage{
		{Station: int(seed) % 4, Start: 30, End: 45, Scale: 0},
		{Station: int(seed+1) % 4, Start: 50, End: 58, Scale: 0.5},
		{Station: int(seed+2) % 4, Start: 70, End: 71, Scale: 0},
	}
	if err := eng.SetDrift(&Drift{Outages: outages}); err != nil {
		t.Fatal(err)
	}
	tap := &ledgerTap{Scheduler: sched}
	ref := newRefLedger(net.NumStations())
	res := &core.Result{Algorithm: sched.Name(), Decisions: make([]core.Decision, len(reqs))}
	for j := range res.Decisions {
		res.Decisions[j] = core.Decision{RequestID: j, Station: -1}
	}
	var pending []int
	next := 0
	for slot := 0; slot < horizon; slot++ {
		for next < len(reqs) && reqs[next].ArrivalSlot <= slot {
			pending = append(pending, next)
			next++
		}
		tap.ran = false
		var rep SlotReport
		var err error
		if pending, rep, err = eng.Step(tap, res, slot, pending); err != nil {
			t.Fatal(err)
		}

		ref.release(slot)
		for _, o := range outages {
			if o.Start == slot {
				ref.evictStation(o.Station)
			}
		}
		cov.outageEvicted += len(rep.OutageEvicted)
		if tap.ran {
			if err := tap.before.checkLedgers(ref); err != nil {
				t.Fatalf("slot %d, before scheduling: %v", slot, err)
			}
			ref.used = tap.usedAfter
			ref.settle(eng, res, slot, tap.admitted, sched.UncertaintyAware())
			for _, j := range rep.Admitted {
				d := res.Decisions[j]
				if !d.Served && !d.Evicted {
					cov.dropped++
				}
			}
		}
		if err := ref.check(eng); err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		for _, ru := range eng.active {
			cov.streams++
			if len(ru.holds) > 1 {
				cov.spread++
			}
		}
		for _, j := range rep.Served {
			stacked := map[int]int{}
			for _, st := range res.Decisions[j].TaskStations {
				stacked[st]++
			}
			for _, n := range stacked {
				if n >= 3 {
					cov.stacked++
					break
				}
			}
		}
		if slot%10 == 9 && eng.NumRunning() > 0 {
			cov.restored++
			checkRestoreRoundTrip(t, eng, ref, slot)
		}
	}
}

// checkLedgers compares ledgers captured from the engine with the
// reference's, bit for bit.
func (l *refLedger) checkLedgers(ref *refLedger) error {
	if err := sameBits(l.used, ref.used); err != nil {
		return fmt.Errorf("Used: %w", err)
	}
	if err := sameBits(l.expected, ref.expected); err != nil {
		return fmt.Errorf("ExpectedUsed: %w", err)
	}
	if err := sameBits(l.procMS, ref.procMS); err != nil {
		return fmt.Errorf("RunningProcMS: %w", err)
	}
	return nil
}

// checkRestoreRoundTrip restores eng's running streams into a fresh
// engine and drains it slot by slot against a copy of the reference.
func checkRestoreRoundTrip(t *testing.T, eng *Engine, ref *refLedger, slot int) {
	t.Helper()
	snaps := eng.SnapshotRunning()
	fresh, err := NewLiveEngine(eng.Net(), rand.New(rand.NewSource(1)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreRunning(snaps); err != nil {
		t.Fatalf("slot %d: restoring the engine's own snapshot: %v", slot, err)
	}
	back := newRefLedger(len(ref.used))
	back.restore(ref.snapshot())
	if err := back.check(fresh); err != nil {
		t.Fatalf("slot %d, restored: %v", slot, err)
	}
	for tt := slot + 1; fresh.NumRunning() > 0; tt++ {
		if _, _, err := fresh.Step(noopScheduler{}, &core.Result{}, tt, nil); err != nil {
			t.Fatal(err)
		}
		back.release(tt)
		if err := back.check(fresh); err != nil {
			t.Fatalf("slot %d, restored and drained to slot %d: %v", slot, tt, err)
		}
	}
}
