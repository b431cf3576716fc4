package oracle

import (
	"sort"

	"mecoffload/internal/core"
	"mecoffload/internal/mec"
	"mecoffload/internal/sim"
)

// NaiveAdmissionSet re-derives DynamicRR's step-10/11 candidate set
// independently of the scheduler: pending requests sorted by increasing
// expected data rate (ties on id), truncated to n_max = floor(free/C^th)
// so the average free-capacity share per admitted request stays at least
// C^th. The scheduler's admitted set must be a subset. A non-positive
// threshold disables the rule (every pending request is a candidate).
func NaiveAdmissionSet(reqs []*mec.Request, pending []int, freeMHz, cth float64) map[int]bool {
	allowed := make(map[int]bool, len(pending))
	if cth <= 0 {
		for _, j := range pending {
			allowed[j] = true
		}
		return allowed
	}
	// The share count stays a float until it is below len(pending): free
	// MHz over MaxInt64·C^th would wrap a plain conversion negative.
	ratio := freeMHz / cth
	if !(ratio >= 1) {
		return allowed
	}
	sorted := append([]int(nil), pending...)
	sort.Slice(sorted, func(a, b int) bool {
		ra, rb := reqs[sorted[a]].ExpectedRate(), reqs[sorted[b]].ExpectedRate()
		if ra != rb {
			return ra < rb
		}
		return sorted[a] < sorted[b]
	})
	if ratio < float64(len(sorted)) {
		sorted = sorted[:int(ratio)]
	}
	for _, j := range sorted {
		allowed[j] = true
	}
	return allowed
}

// NaiveScheduler is the trusted single-slot reference scheduler: first
// come first served, each request consolidated on its access station iff
// the station's expected load keeps room for the request's expected
// demand and the deadline is still reachable. No migration, no
// distribution, no learning — a dozen lines whose correctness is obvious
// by inspection, used to validate the engine's settlement and ledger
// plumbing independently of the production schedulers.
type NaiveScheduler struct{}

var _ sim.Scheduler = NaiveScheduler{}

// Name implements sim.Scheduler.
func (NaiveScheduler) Name() string { return "Naive" }

// UncertaintyAware implements sim.Scheduler: the naive reference plans on
// expected demand and lets the engine settle realized rates.
func (NaiveScheduler) UncertaintyAware() bool { return false }

// Feedback implements sim.Scheduler: the naive reference does not learn.
func (NaiveScheduler) Feedback(int, float64) {}

// Schedule implements sim.Scheduler.
func (NaiveScheduler) Schedule(eng *sim.Engine, res *core.Result, t int, pending []int) ([]int, error) {
	n := eng.Net()
	load := eng.ExpectedUsed()
	var admitted []int
	reqs := eng.Build(pending)
	for _, j := range pending {
		r := reqs[j]
		i := r.AccessStation
		wait := t - r.ArrivalSlot
		if !r.DelayFeasible(n, i, wait, eng.SlotLengthMS()) {
			continue
		}
		demand := n.RateToMHz(r.ExpectedRate())
		if load[i]+demand > n.Capacity(i)+capacityTol {
			continue
		}
		load[i] += demand
		d := &res.Decisions[j]
		d.Admitted = true
		d.Station = i
		d.Slot = t
		d.WaitSlots = wait
		d.TaskStations = make([]int, len(r.Tasks))
		for k := range d.TaskStations {
			d.TaskStations[k] = i
		}
		d.LatencyMS = float64(wait)*eng.SlotLengthMS() + r.ServiceDelayMS(n, i)
		admitted = append(admitted, j)
	}
	return admitted, nil
}
