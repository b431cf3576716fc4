// Package sim implements the time-slotted online simulation of the dynamic
// reward maximization problem (Section V): requests arrive over a horizon
// of scheduling slots, wait in a pending queue (preemptive scheduling),
// occupy their service instances for their stream durations, and depart.
// The package provides the paper's online learning algorithm DynamicRR
// (Algorithm 3) and online variants of the OCORP, Greedy, and HeuKKT
// baselines behind a common Scheduler interface.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"mecoffload/internal/core"
	"mecoffload/internal/mec"
)

// Errors returned by the engine.
var (
	ErrNilScheduler = errors.New("sim: nil scheduler")
	ErrBadHorizon   = errors.New("sim: horizon must be positive")
	// ErrBadSlotLength rejects a slot length that is not positive and
	// finite: expiry files each request's last feasible slot, which
	// assumes that waiting a slot longer never shortens Eq. (2)'s delay.
	ErrBadSlotLength = errors.New("sim: slot length must be positive and finite")
)

// Scheduler decides, once per time slot, which pending requests to admit
// and where. Implementations mutate res.Decisions for the requests they
// admit (Admitted, Station, Slot, TaskStations, WaitSlots, LatencyMS, and
// — for uncertainty-aware schedulers — Evicted) and return the admitted
// request ids, every one of them: SlotReport.Admitted lists only those,
// and the daemon learns of an admission from the report alone.
// Uncertainty-aware schedulers realize data rates during
// admission and keep eng.Used consistent themselves; oblivious schedulers
// must not touch realized state, and the engine settles it for them.
type Scheduler interface {
	// Name identifies the scheduler in results.
	Name() string
	// UncertaintyAware reports whether the scheduler observes realized
	// data rates (and therefore evicts overflow itself).
	UncertaintyAware() bool
	// Schedule admits pending requests at slot t.
	Schedule(eng *Engine, res *core.Result, t int, pending []int) ([]int, error)
	// Feedback receives the realized reward of slot t's admissions after
	// the slot settles (DynamicRR's bandit update); a scheduler that does
	// not learn ignores it. A wrapper forwards it to the scheduler it wraps.
	Feedback(t int, slotReward float64)
}

// hold is one station's part of a running stream: the realized MHz the
// stream's tasks hold there and the expected MHz the oblivious planning
// view counts for them.
type hold struct {
	station  int
	mhz, exp float64
}

// addHold adds one task's realized and expected MHz to the hold on
// station st among holds[lo:], appending a zero hold there first when
// there is none, so each value is its tasks' shares summed in task order.
func addHold(holds []hold, lo, st int, mhz, exp float64) []hold {
	i := lo
	for i < len(holds) && holds[i].station != st {
		i++
	}
	if i == len(holds) {
		holds = append(holds, hold{station: st})
	}
	holds[i].mhz += mhz
	holds[i].exp += exp
	return holds
}

// running tracks one in-service request together with what release
// subtracts from the ledgers at departure: its holds, its tasks'
// mec.Network.TaskMHz shares summed per station. Admission booked the same
// shares (settle itself for an oblivious scheduler, core for an
// uncertainty-aware one), and they are multiples of mec.Quantum, so release
// takes back exactly what admission added.
type running struct {
	req     int
	endSlot int
	// holds lists every station the stream's tasks run on once: in the
	// order TaskStations first names it, or by station when restored.
	holds []hold
	// procStation and procMS record the backlog-proxy contribution.
	procStation int
	procMS      float64
}

// Engine drives the slotted system. Create it with NewLiveEngine, file
// requests with Append or AppendKey as they arrive, and advance it one
// Step per slot: the serving daemon does so on its clock, and Simulate
// over a whole workload.
type Engine struct {
	net *mec.Network
	// keys[j] is request j's key, and reqs[j] the request itself: nil for
	// a request appended as a key until Build makes it (see Key). cut[j]
	// is the last slot at which request j can still meet its deadline
	// somewhere (see lastFeasibleSlot), filed with the key.
	keys  []Key
	cut   []int
	reqs  []*mec.Request
	build Builder
	rng   *rand.Rand
	slotL float64

	used     []float64 // realized MHz per station, authoritative
	expected []float64 // expected MHz per station of running requests
	procMS   []float64 // running pipeline work per station (backlog proxy)
	active   []running
	// overloaded, batch and holds are settle's per-slot scratch, reused
	// across slots.
	overloaded []bool
	batch      []member
	holds      []hold
	// departed, expired, admitted and served back the lists of the last
	// SlotReport (see Step).
	departed, expired, admitted, served []int
	// check, when set, is invoked at the end of every Step (see
	// SetStepChecker).
	check StepChecker
	// deferFB suppresses Step's in-slot scheduler feedback (see
	// SetFeedbackDeferred).
	deferFB bool
	// drift holds the scripted non-stationarity cursors (see SetDrift);
	// nil for stationary runs.
	drift *driftState
}

// StepInfo carries the per-slot context a StepChecker needs beyond the
// engine, result, and report.
type StepInfo struct {
	// Sched is the scheduler that ran (or would have run) this slot.
	Sched Scheduler
	// Pending is a snapshot of the queue the scheduler saw, taken after
	// departures were released and unreachable requests expired. Empty
	// when the scheduler was skipped because nothing was pending.
	Pending []int
	// FreeBeforeMHz is the total spare realized capacity across stations
	// at scheduling time (after release, before admission).
	FreeBeforeMHz float64
}

// StepChecker is an invariant hook run at the end of every Step, after
// settlement and feedback. A non-nil error aborts the step (and thus the
// run): checkers assert conservation laws, they do not steer decisions.
// internal/oracle provides the production checker.
type StepChecker func(e *Engine, res *core.Result, rep SlotReport, info StepInfo) error

// SetStepChecker installs (or, with nil, removes) the per-slot invariant
// hook. The checker observes every subsequent Step, including slots where
// the scheduler was skipped for lack of pending requests.
func (e *Engine) SetStepChecker(c StepChecker) { e.check = c }

// SetFeedbackDeferred controls whether Step delivers the slot's realized
// reward to the scheduler's Feedback itself (the default) or leaves
// feedback to the caller. The sharded cluster defers it so every shard's
// threshold learner is updated with the globally aggregated slot reward,
// the signal a single engine's bandit sees, not with its own shard's.
func (e *Engine) SetFeedbackDeferred(v bool) { e.deferFB = v }

// NewLiveEngine builds an open-ended engine with no fixed horizon and an
// empty workload: requests are appended as they arrive (Append, AppendKey)
// and time advances one Step call at a time. The caller owns the pending
// queue and the Result, both of which grow with the request stream. A
// slot length of 0 selects mec.DefaultSlotLengthMS.
func NewLiveEngine(n *mec.Network, rng *rand.Rand, slotLengthMS float64) (*Engine, error) {
	if n == nil {
		return nil, core.ErrNilNetwork
	}
	if slotLengthMS == 0 {
		slotLengthMS = mec.DefaultSlotLengthMS
	}
	if !validSlotLength(slotLengthMS) {
		return nil, fmt.Errorf("%w: %v", ErrBadSlotLength, slotLengthMS)
	}
	return &Engine{
		net:      n,
		rng:      rng,
		slotL:    slotLengthMS,
		used:     make([]float64, n.NumStations()),
		expected: make([]float64, n.NumStations()),
		procMS:   make([]float64, n.NumStations()),
	}, nil
}

// validSlotLength reports whether l is a slot length the engine runs on.
func validSlotLength(l float64) bool { return l > 0 && l <= math.MaxFloat64 }

// Key is what the engine reads of a request before DynamicRR's R_t
// selects it: filing reads the arrival, access station, pipeline and
// deadline once to fix the request's last feasible slot (see
// lastFeasibleSlot), R_t's order reads the expected rate, and the waits
// the arrival. The engine keeps one per request index, densely, beside
// the requests.
type Key struct {
	ArrivalSlot   int
	AccessStation int
	DeadlineMS    float64
	// ExpectedRate is E[ρ_j], bit for bit what the request's distribution
	// returns.
	ExpectedRate float64
	// Tasks is the request's pipeline, shared with the request once built.
	Tasks []mec.Task
}

// KeyOf returns a built request's key.
func KeyOf(r *mec.Request) Key {
	return Key{
		ArrivalSlot:   r.ArrivalSlot,
		AccessStation: r.AccessStation,
		DeadlineMS:    r.DeadlineMS,
		ExpectedRate:  r.ExpectedRate(),
		Tasks:         r.Tasks,
	}
}

// neverExpires is the cut of a request that no reachable wait can make
// late; a span of more than maxSpan slots counts as one.
const (
	neverExpires = math.MaxInt
	maxSpan      = 1 << 52
)

// lastFeasibleSlot returns the last slot at which a request filed under k
// can still be served on some station within its deadline:
// mec.Request.DelayFeasible holds for some station at every wait up to
// the cut minus k.ArrivalSlot and at none after it. It is k.ArrivalSlot−1
// when no station meets the deadline even at once, and neverExpires when
// the deadline is met for more than maxSpan slots.
//
// The cut is exact, bit for bit. A wait of w slots is feasible on station
// i when float64(w)·L + S_i <= D, S_i being Eq. (2)'s service delay.
// Float addition is monotone, so some station is feasible exactly when
// the one with the smallest non-NaN S_i is (mec.Network.MinServiceDelayMS),
// and Eq. (2) has no capacity term, so that minimum is fixed at filing.
// With L positive, feasibility falls monotonically with w, so the estimate
// (D − S_min)/L is stepped with the exact predicate to the last feasible
// wait. A few steps settle it whenever the sum resolves L; near a large
// S_min the sum can stay put over up to ulp(S_min)/(2L) waits, so past
// those steps the wait is bisected over [0, maxSpan] with the same
// predicate, at most 53 probes, which monotonicity makes exact too. A NaN
// deadline or S_min fails the predicate at every wait.
func lastFeasibleSlot(n *mec.Network, k *Key, slotL float64) int {
	sMin := n.MinServiceDelayMS(k.AccessStation, k.Tasks)
	ok := func(w int) bool { return float64(w)*slotL+sMin <= k.DeadlineMS }
	if !ok(0) {
		return k.ArrivalSlot - 1
	}
	span := (k.DeadlineMS - sMin) / slotL
	if !(span < maxSpan) { // +Inf, or +Inf − +Inf
		return neverExpires
	}
	w, settled := int(span), false
	for range 4 {
		if !ok(w) { // w > 0, as ok(0) holds
			w--
		} else if ok(w + 1) {
			w++
		} else {
			settled = true
			break
		}
	}
	if !settled {
		if ok(maxSpan) {
			return neverExpires
		}
		w = sort.Search(maxSpan, func(w int) bool { return !ok(w) }) - 1
	}
	if k.ArrivalSlot > neverExpires-w {
		return neverExpires
	}
	return k.ArrivalSlot + w
}

// Builder makes the request filed under key k at index j, for an engine
// its caller appends keys to (AppendKey). It cannot fail: the caller
// checked what it builds from before it filed the key. The engine sets
// the request's ID, ArrivalSlot and AccessStation from the index and the
// key (a handover may have moved the access station since).
type Builder func(j int, k Key) *mec.Request

// SetBuilder installs the builder of the requests AppendKey files.
func (e *Engine) SetBuilder(b Builder) { e.build = b }

// Append adds a built request to a live engine's workload. The request
// must carry the next dense ID (len(Requests())), a non-decreasing
// arrival slot and an access station of the network, and pass
// mec.Request.Validate.
func (e *Engine) Append(r *mec.Request) error {
	if r == nil {
		return fmt.Errorf("sim: nil request")
	}
	if r.ID != len(e.reqs) {
		return fmt.Errorf("sim: appended request has ID %d, want %d", r.ID, len(e.reqs))
	}
	k := KeyOf(r)
	if err := e.checkKey(k); err != nil {
		return err
	}
	if err := r.Validate(); err != nil {
		return err
	}
	e.file(k)
	e.reqs = append(e.reqs, r)
	return nil
}

// AppendKey adds a request to a live engine's workload as its key alone,
// under the next dense index; the installed Builder makes the request when
// Build first asks for it. The arrival must not precede the last one.
func (e *Engine) AppendKey(k Key) error {
	if e.build == nil {
		return fmt.Errorf("sim: appended a key with no builder installed")
	}
	if err := e.checkKey(k); err != nil {
		return err
	}
	e.file(k)
	e.reqs = append(e.reqs, nil)
	return nil
}

// file appends key k and its cut.
func (e *Engine) file(k Key) {
	e.keys = append(e.keys, k)
	e.cut = append(e.cut, lastFeasibleSlot(e.net, &k, e.slotL))
}

// checkKey checks an appended request's arrival order and access station.
func (e *Engine) checkKey(k Key) error {
	if n := len(e.keys); n > 0 && k.ArrivalSlot < e.keys[n-1].ArrivalSlot {
		return fmt.Errorf("sim: appended request arrives at slot %d before slot %d", k.ArrivalSlot, e.keys[n-1].ArrivalSlot)
	}
	if k.AccessStation < 0 || k.AccessStation >= e.net.NumStations() {
		return fmt.Errorf("sim: appended request access station %d out of range", k.AccessStation)
	}
	return nil
}

// Build makes every request among ids that is still a key alone, files
// it, and returns the workload. A scheduler calls it with the requests it
// is about to read: DynamicRR with R_t, a baseline with the whole queue.
func (e *Engine) Build(ids []int) []*mec.Request {
	for _, j := range ids {
		if e.reqs[j] == nil {
			e.reqs[j] = e.materialize(j)
		}
	}
	return e.reqs
}

// Materialized returns request j: the filed one once built, else one the
// Builder makes for the caller alone, which the engine does not keep. It
// lets a checker read a pending request's distribution without reading
// its key.
func (e *Engine) Materialized(j int) *mec.Request {
	if r := e.reqs[j]; r != nil {
		return r
	}
	return e.materialize(j)
}

// materialize builds request j from its key.
func (e *Engine) materialize(j int) *mec.Request {
	k := e.keys[j]
	r := e.build(j, k)
	r.ID, r.ArrivalSlot, r.AccessStation = j, k.ArrivalSlot, k.AccessStation
	return r
}

// Net returns the network under simulation.
func (e *Engine) Net() *mec.Network { return e.net }

// Requests returns the workload (shared slice; do not mutate). A request
// appended as a key is nil there until Build makes it.
func (e *Engine) Requests() []*mec.Request { return e.reqs }

// SlotLengthMS returns the scheduling slot length.
func (e *Engine) SlotLengthMS() float64 { return e.slotL }

// Rng returns the engine's randomness source (shared with schedulers so
// runs are reproducible from one seed).
func (e *Engine) Rng() *rand.Rand { return e.rng }

// Used returns the realized per-station occupancy ledger. Only
// uncertainty-aware schedulers may read or write it.
func (e *Engine) Used() []float64 { return e.used }

// ExpectedUsed returns a copy of the expected per-station load of running
// requests — the view an uncertainty-oblivious scheduler plans against.
func (e *Engine) ExpectedUsed() []float64 {
	out := make([]float64, len(e.expected))
	copy(out, e.expected)
	return out
}

// RunningProcMS returns a copy of the running pipeline work per station in
// milliseconds, the backlog proxy the online Greedy baseline throttles on.
func (e *Engine) RunningProcMS() []float64 {
	out := make([]float64, len(e.procMS))
	copy(out, e.procMS)
	return out
}

// FreeCapacity returns the total realized spare MHz across stations.
func (e *Engine) FreeCapacity() float64 {
	total := 0.0
	for i, u := range e.used {
		total += e.net.Capacity(i) - u
	}
	return total
}

// SlotReport summarizes what one Step did: which requests departed,
// expired, were admitted, and survived settlement, plus the realized
// reward credited to the slot. The serving daemon turns these into
// request-status events and metrics. Departed, Expired, Admitted and
// Served are buffers the engine owns: they are valid until the next Step,
// which writes over them, so a caller that keeps one past it copies it.
type SlotReport struct {
	// Slot is the time-slot index the report covers.
	Slot int
	// Departed lists requests whose streams ended at this slot.
	Departed []int
	// Expired lists pending requests dropped because their deadline became
	// unreachable on every station (they stay rejected).
	Expired []int
	// Admitted lists requests the scheduler admitted this slot, including
	// any that were evicted at realization.
	Admitted []int
	// Served lists the admitted requests that survived settlement and are
	// now running streams.
	Served []int
	// OutageEvicted lists running streams destroyed because their station
	// entered an outage this slot (rewards credited at admission stay).
	OutageEvicted []int
	// HandedOver lists pending requests whose access station was moved by
	// a mobility handover this slot.
	HandedOver []int
	// Reward is the realized reward credited to this slot.
	Reward float64
}

// Step advances the engine by one scheduling slot: departures are
// released, unreachable pending requests expire, the scheduler runs over
// the survivors, the slot settles (rates realize, overloads evict,
// rewards credit), and learning feedback is delivered. It returns the
// updated pending queue (decided requests removed) and a report of the
// slot. The caller appends arrivals to pending before calling. Slots must
// be stepped in increasing order.
func (e *Engine) Step(sched Scheduler, res *core.Result, t int, pending []int) ([]int, SlotReport, error) {
	if sched == nil {
		return pending, SlotReport{Slot: t}, ErrNilScheduler
	}
	rep := SlotReport{Slot: t, Departed: e.departed[:0], Expired: e.expired[:0], Admitted: e.admitted[:0], Served: e.served[:0]}
	defer func() {
		e.departed, e.expired, e.admitted, e.served = rep.Departed, rep.Expired, rep.Admitted, rep.Served
	}()

	// Departures first: instances destroyed at the start of endSlot.
	rep.Departed = e.release(t, rep.Departed)

	// Scripted drift transitions fire after departures (a stream ending
	// exactly now departs normally) and before expiry, so expiry and
	// scheduling both see the post-transition network and queue.
	e.applyDrift(t, pending, &rep)

	// Expire pending requests that can no longer meet their deadline
	// anywhere, even if scheduled right now (they remain rejected).
	pending = e.expire(pending, t, &rep)
	var info StepInfo
	if e.check != nil {
		info = StepInfo{Sched: sched, FreeBeforeMHz: e.FreeCapacity()}
	}
	if len(pending) == 0 {
		if e.check != nil {
			if err := e.check(e, res, rep, info); err != nil {
				return pending, rep, err
			}
		}
		return pending, rep, nil
	}
	if e.check != nil {
		info.Pending = append([]int(nil), pending...)
	}

	admitted, err := sched.Schedule(e, res, t, pending)
	if err != nil {
		return pending, rep, err
	}
	rep.Reward = e.settle(res, t, admitted, sched.UncertaintyAware())
	if !e.deferFB {
		sched.Feedback(t, rep.Reward)
	}
	for _, j := range admitted {
		if !res.Decisions[j].Admitted {
			continue
		}
		rep.Admitted = append(rep.Admitted, j)
		if res.Decisions[j].Served {
			rep.Served = append(rep.Served, j)
		}
	}

	// Remove decided requests from the pending queue.
	keep := pending[:0]
	for _, j := range pending {
		if !res.Decisions[j].Admitted {
			keep = append(keep, j)
		}
	}
	if e.check != nil {
		if err := e.check(e, res, rep, info); err != nil {
			return keep, rep, err
		}
	}
	return keep, rep, nil
}

// release frees the resources of requests departing at slot t by
// subtracting the holds recorded at admission. It appends the ids of the
// departed requests to departed.
func (e *Engine) release(t int, departed []int) []int {
	keep := e.active[:0]
	for _, ru := range e.active {
		if ru.endSlot > t {
			keep = append(keep, ru)
			continue
		}
		departed = append(departed, ru.req)
		e.drop(&ru)
	}
	e.active = keep
	return departed
}

// drop subtracts a running stream's holds and backlog contribution from
// the ledgers.
func (e *Engine) drop(ru *running) {
	for _, h := range ru.holds {
		e.used[h.station] -= h.mhz
		e.expected[h.station] -= h.exp
	}
	e.procMS[ru.procStation] -= ru.procMS
}

// expire drops pending requests whose deadline is unreachable: even if
// scheduled this slot on the latency-optimal station, D_j would exceed
// D̂_j. That is the case from the slot after the request's cut on, which
// filing fixed (lastFeasibleSlot), so each pending request costs one
// comparison. Dropped requests stay rejected in the final result and are
// recorded in rep.Expired, in pending order.
func (e *Engine) expire(pending []int, t int, rep *SlotReport) []int {
	keep := pending[:0]
	for _, j := range pending {
		if t <= e.cut[j] {
			keep = append(keep, j)
		} else {
			rep.Expired = append(rep.Expired, j)
		}
	}
	return keep
}

// member is one of settle's admissions this slot: the request and the
// span of settle's hold scratch its stream's holds occupy.
type member struct {
	req, lo, hi int
}

// settle evaluates this slot's admissions: realizes rates for oblivious
// schedulers, applies the shared overload semantics (a station whose
// realized load exceeds capacity fails every request admitted to it this
// slot), credits rewards, and registers survivors as running streams. It
// returns the slot's realized reward.
func (e *Engine) settle(res *core.Result, t int, admitted []int, aware bool) float64 {
	batch, holds := e.batch[:0], e.holds[:0]
	for _, j := range admitted {
		d := &res.Decisions[j]
		if !d.Admitted {
			continue
		}
		res.Admitted++
		if d.Evicted {
			continue
		}
		r := e.reqs[j]
		out := r.Realize(e.rng)
		work, eRate := r.WorkMS(), r.ExpectedRate()
		lo := len(holds)
		for k, st := range d.TaskStations {
			holds = addHold(holds, lo, st, e.net.TaskMHzOfWork(r, k, out.Rate, work), e.net.TaskMHzOfWork(r, k, eRate, work))
		}
		if !aware {
			// Oblivious schedulers did not touch the realized ledger; the
			// stream physically lands on the stations regardless.
			for _, h := range holds[lo:] {
				e.used[h.station] += h.mhz
			}
		}
		batch = append(batch, member{req: j, lo: lo, hi: len(holds)})
	}
	e.batch, e.holds = batch, holds
	if len(batch) == 0 {
		return 0
	}

	// Overload determination (buffer reused across slots: settle runs on
	// the hot per-slot path and must not allocate when nothing settles).
	nS := e.net.NumStations()
	if cap(e.overloaded) < nS {
		e.overloaded = make([]bool, nS)
	}
	overloaded := e.overloaded[:nS]
	for i := 0; i < nS; i++ {
		overloaded[i] = e.used[i] > e.net.Capacity(i)
	}

	slotReward := 0.0
	for _, m := range batch {
		d := &res.Decisions[m.req]
		r := e.reqs[m.req]
		run := holds[m.lo:m.hi]
		ok := d.LatencyMS <= r.DeadlineMS+1e-9
		for _, h := range run {
			if overloaded[h.station] {
				ok = false
				break
			}
		}
		if !ok {
			// The stream is dropped at the end of the slot; free its hold.
			for _, h := range run {
				e.used[h.station] -= h.mhz
			}
			continue
		}
		out, _ := r.Realized()
		d.Served = true
		d.Reward = out.Reward
		res.TotalReward += out.Reward
		res.Served++
		slotReward += out.Reward

		// Register the running stream with the holds release subtracts at
		// departure.
		ru := running{
			req:         m.req,
			endSlot:     t + r.HoldSlots(),
			holds:       slices.Clone(run),
			procStation: d.TaskStations[0],
		}
		for _, h := range run {
			e.expected[h.station] += h.exp
		}
		if station, err := e.net.Station(ru.procStation); err == nil {
			ru.procMS = mec.Quantize(r.ProcDelayMS(station))
			e.procMS[ru.procStation] += ru.procMS
		}
		e.active = append(e.active, ru)
	}
	return slotReward
}
