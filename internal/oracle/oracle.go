// Package oracle is the correctness backstop for the optimized solver and
// scheduler paths: slow trusted reference implementations (a dense
// textbook simplex, brute-force exact assignment, a naive single-slot
// scheduler), differential runners comparing the production algorithms
// against them, and a runtime invariant checker asserting the per-slot
// conservation laws of the time-slotted model. The invariant checker
// hooks into sim.Engine.Step via EngineChecker (the serving daemon
// enables it with MEC_ORACLE=1); the differential runners back the
// package's test suite, which CI runs both as-is and under the
// oraclemutant build tag (where it must fail — see internal/core's
// fitsWithin).
package oracle

import (
	"fmt"
	"slices"

	"mecoffload/internal/bandit"
	"mecoffload/internal/core"
	"mecoffload/internal/mec"
	"mecoffload/internal/sim"
)

// capacityTol is the reference's capacity slack in MHz: it recomputes
// task shares unquantized, and each differs from the mec.Quantum multiple
// the production ledgers book by at most half a quantum.
const capacityTol = 1e-6

// State is a snapshot of everything the invariant checker inspects. Only
// Net and UsedMHz are mandatory; nil slices skip the related checks.
type State struct {
	// Net is the network whose capacities bound the occupancy ledgers.
	Net *mec.Network
	// UsedMHz is the realized per-station occupancy ledger.
	UsedMHz []float64
	// ExpectedMHz is the expected per-station load of running requests.
	ExpectedMHz []float64
	// Decisions is the result's per-request decision table.
	Decisions []core.Decision
	// Running lists the in-service streams with their ledger shares.
	Running []sim.RunningSnapshot
	// Bandit, when set, is DynamicRR's successive-elimination policy.
	Bandit *bandit.SuccessiveElimination
}

// Check asserts the per-slot conservation laws of Section V's model:
//
//   - every station's realized occupancy lies in [0, C(bs_i)] (up to
//     float tolerance), and the expected ledger is non-negative;
//   - the occupancy ledger equals the sum of the running streams' shares
//     bit for bit (capacity is neither leaked nor double-counted; the
//     shares are multiples of mec.Quantum, so their sum is exact in any
//     order);
//   - no request runs twice, and every running request's decision says
//     admitted, served, and not evicted;
//   - the bandit's confidence bounds are ordered (LCB ≤ mean ≤ UCB) and
//     at least one arm is still active.
//
// A non-nil error identifies the first violated law.
func Check(s State) error {
	if s.Net == nil {
		return fmt.Errorf("oracle: nil network")
	}
	n := s.Net.NumStations()
	if len(s.UsedMHz) != n {
		return fmt.Errorf("oracle: occupancy ledger has %d stations, network has %d", len(s.UsedMHz), n)
	}
	for i, u := range s.UsedMHz {
		if u < -capacityTol {
			return fmt.Errorf("oracle: station %d occupancy negative (%.6f MHz)", i, u)
		}
		if cap := s.Net.Capacity(i); u > cap+capacityTol {
			return fmt.Errorf("oracle: station %d occupancy %.3f MHz exceeds capacity %.3f MHz", i, u, cap)
		}
	}
	for i, u := range s.ExpectedMHz {
		if u < -capacityTol {
			return fmt.Errorf("oracle: station %d expected load negative (%.6f MHz)", i, u)
		}
	}
	if s.Running != nil {
		seen := make(map[int]bool, len(s.Running))
		fromShares := make([]float64, n)
		for _, ru := range s.Running {
			if seen[ru.Request] {
				return fmt.Errorf("oracle: request %d running twice", ru.Request)
			}
			seen[ru.Request] = true
			for st, mhz := range ru.Shares {
				if st < 0 || st >= n {
					return fmt.Errorf("oracle: request %d holds share on station %d (out of range)", ru.Request, st)
				}
				if mhz < 0 {
					return fmt.Errorf("oracle: request %d holds negative share %.6f MHz on station %d", ru.Request, mhz, st)
				}
				fromShares[st] += mhz
			}
			if s.Decisions != nil {
				if ru.Request < 0 || ru.Request >= len(s.Decisions) {
					return fmt.Errorf("oracle: running request %d outside decision table (%d entries)", ru.Request, len(s.Decisions))
				}
				d := s.Decisions[ru.Request]
				if !d.Admitted || !d.Served || d.Evicted {
					return fmt.Errorf("oracle: running request %d has decision admitted=%v served=%v evicted=%v",
						ru.Request, d.Admitted, d.Served, d.Evicted)
				}
			}
		}
		for i := range fromShares {
			if s.UsedMHz[i] != fromShares[i] {
				return fmt.Errorf("oracle: station %d ledger %.6f MHz but running shares sum to %.6f MHz",
					i, s.UsedMHz[i], fromShares[i])
			}
		}
	}
	if s.Bandit != nil {
		if s.Bandit.NumActive() < 1 {
			return fmt.Errorf("oracle: bandit eliminated every arm")
		}
		best := s.Bandit.BestArm()
		if best < 0 || !s.Bandit.Active(best) {
			return fmt.Errorf("oracle: bandit best arm %d is not active", best)
		}
		for a := 0; a < s.Bandit.NumArms(); a++ {
			lcb, ucb := s.Bandit.Bounds(a)
			m := s.Bandit.Mean(a)
			if !(lcb <= m && m <= ucb) {
				return fmt.Errorf("oracle: bandit arm %d bounds unordered: lcb=%v mean=%v ucb=%v", a, lcb, m, ucb)
			}
		}
	}
	return nil
}

// EngineChecker returns a sim.StepChecker that runs Check against the
// engine after every slot and additionally enforces the slot's expiry
// (checkExpiry) and three scheduler-level laws: every admission of a
// pending request is reported (checkReported), an uncertainty-aware
// scheduler's admissions always settle (each admitted request ends the
// slot served or explicitly evicted — aware schedulers realize rates
// during admission, so settlement can never surprise them), and
// DynamicRR's admitted set stays within the C^th round-robin share rule
// re-derived independently by NaiveAdmissionSet.
func EngineChecker() sim.StepChecker {
	return func(e *sim.Engine, res *core.Result, rep sim.SlotReport, info sim.StepInfo) error {
		st := State{
			Net:         e.Net(),
			UsedMHz:     e.Used(),
			ExpectedMHz: e.ExpectedUsed(),
			Running:     e.SnapshotRunning(),
		}
		if res != nil {
			st.Decisions = res.Decisions
		}
		drr, isDRR := info.Sched.(*sim.DynamicRR)
		if isDRR {
			if lip := drr.Bandit(); lip != nil {
				if se, ok := lip.Policy().(*bandit.SuccessiveElimination); ok {
					st.Bandit = se
				}
			}
		}
		if err := Check(st); err != nil {
			return fmt.Errorf("slot %d: %w", rep.Slot, err)
		}
		if err := checkDriftTransitions(e, res, rep); err != nil {
			return err
		}
		// Each pending request is built once for the checks that read it
		// (where R_t did not select it, for the check alone), so they read
		// its own deadline and distribution, never its key or its cut.
		var reqs []*mec.Request
		if len(info.Pending) > 0 {
			reqs = make([]*mec.Request, len(e.Requests()))
			for _, j := range info.Pending {
				reqs[j] = e.Materialized(j)
			}
		}
		if err := checkExpiry(e, rep, info, reqs); err != nil {
			return err
		}
		if err := checkReported(res, rep, info); err != nil {
			return err
		}
		if info.Sched != nil && info.Sched.UncertaintyAware() && res != nil {
			for _, j := range rep.Admitted {
				d := res.Decisions[j]
				if !d.Served && !d.Evicted {
					return fmt.Errorf("slot %d: oracle: request %d admitted by aware scheduler %s but neither served nor evicted (capacity discipline broken)",
						rep.Slot, j, info.Sched.Name())
				}
			}
		}
		if isDRR && len(info.Pending) > 0 {
			if cth, ok := drr.LastThreshold(); ok {
				// Each rate comes from the request's own distribution,
				// never from the key R_t's order reads, so a wrong key
				// fails here.
				allowed := NaiveAdmissionSet(reqs, info.Pending, info.FreeBeforeMHz, cth)
				for _, j := range rep.Admitted {
					if !allowed[j] {
						return fmt.Errorf("slot %d: oracle: request %d admitted outside the C^th=%.1f MHz share rule", rep.Slot, j, cth)
					}
				}
			}
		}
		return nil
	}
}

// checkReported enforces the Scheduler contract that every admission is
// returned: a request the scheduler saw pending and admitted this slot is
// in rep.Admitted. Step drops every admitted request from the queue, while
// the daemon records an admission only from the report, so an unreported
// one would leave its request undecided for good.
func checkReported(res *core.Result, rep sim.SlotReport, info sim.StepInfo) error {
	if res == nil {
		return nil
	}
	for _, j := range info.Pending {
		if res.Decisions[j].Admitted && !slices.Contains(rep.Admitted, j) {
			return fmt.Errorf("slot %d: oracle: request %d admitted by %s but not reported",
				rep.Slot, j, info.Sched.Name())
		}
	}
	return nil
}

// checkExpiry re-derives the slot's expiry from each request's own
// deadline and pipeline, at its access station after this slot's
// handovers, testing every station in index order: a request in
// rep.Expired must be infeasible everywhere at its wait, and one the
// scheduler saw (info.Pending, built in reqs) feasible somewhere. It never
// reads the cut the engine filed, so a wrong key or a wrong cut fails here.
func checkExpiry(e *sim.Engine, rep sim.SlotReport, info sim.StepInfo, reqs []*mec.Request) error {
	feasible := func(r *mec.Request) bool {
		for i := 0; i < e.Net().NumStations(); i++ {
			if r.DelayFeasible(e.Net(), i, rep.Slot-r.ArrivalSlot, e.SlotLengthMS()) {
				return true
			}
		}
		return false
	}
	for _, j := range rep.Expired {
		if feasible(e.Materialized(j)) {
			return fmt.Errorf("slot %d: oracle: request %d expired while its deadline is still reachable", rep.Slot, j)
		}
	}
	for _, j := range info.Pending {
		if !feasible(reqs[j]) {
			return fmt.Errorf("slot %d: oracle: request %d stayed pending after its deadline became unreachable everywhere", rep.Slot, j)
		}
	}
	return nil
}

// checkDriftTransitions enforces the conservation laws of drift slots:
// an outage-evicted stream is really gone (it no longer runs, holds no
// shares — the ledger law in Check covers the latter — and keeps its
// admission-time served reward), and a handed-over request was pending at
// transition time with a valid destination station (it may well have been
// admitted later in the same slot — handovers fire before scheduling).
// Both lists are empty on stationary runs, making this a no-op.
func checkDriftTransitions(e *sim.Engine, res *core.Result, rep sim.SlotReport) error {
	if len(rep.OutageEvicted) == 0 && len(rep.HandedOver) == 0 {
		return nil
	}
	running := make(map[int]bool)
	for _, ru := range e.SnapshotRunning() {
		running[ru.Request] = true
	}
	for _, j := range rep.OutageEvicted {
		if running[j] {
			return fmt.Errorf("slot %d: oracle: request %d evicted by outage but still running", rep.Slot, j)
		}
		if res != nil && j >= 0 && j < len(res.Decisions) {
			d := res.Decisions[j]
			if !d.Admitted || !d.Served {
				return fmt.Errorf("slot %d: oracle: outage-evicted request %d was never a served stream (admitted=%v served=%v)",
					rep.Slot, j, d.Admitted, d.Served)
			}
		}
	}
	n := e.Net().NumStations()
	for _, j := range rep.HandedOver {
		if j < 0 || j >= len(e.Requests()) {
			return fmt.Errorf("slot %d: oracle: handed-over request %d outside workload", rep.Slot, j)
		}
		if st := e.Materialized(j).AccessStation; st < 0 || st >= n {
			return fmt.Errorf("slot %d: oracle: request %d handed over to station %d (out of range)", rep.Slot, j, st)
		}
	}
	return nil
}

// CheckAdmittedLoad verifies the capacity discipline of an offline
// result: the realized demand shares of every admitted, non-evicted
// request, accumulated per station exactly as core.Evaluate does, must
// not exceed any station's capacity. The production algorithms guard
// every ledger commit with the occupancy test, so this holds by
// construction — unless the test is broken (the oraclemutant build).
func CheckAdmittedLoad(n *mec.Network, reqs []*mec.Request, res *core.Result) error {
	if n == nil || res == nil {
		return fmt.Errorf("oracle: nil network or result")
	}
	load := make([]float64, n.NumStations())
	for j := range res.Decisions {
		d := &res.Decisions[j]
		if !d.Admitted || d.Evicted {
			continue
		}
		r := reqs[j]
		out, err := r.MustRealized()
		if err != nil {
			return fmt.Errorf("oracle: admitted request %d: %w", j, err)
		}
		demand := n.RateToMHz(out.Rate)
		totalWork := 0.0
		for _, task := range r.Tasks {
			totalWork += task.WorkMS
		}
		for k, st := range d.TaskStations {
			frac := 1.0 / float64(len(r.Tasks))
			if totalWork > 0 {
				frac = r.Tasks[k].WorkMS / totalWork
			}
			load[st] += demand * frac
		}
	}
	for i, u := range load {
		if cap := n.Capacity(i); u > cap+capacityTol {
			return fmt.Errorf("oracle: %s admitted %.3f MHz on station %d, capacity %.3f MHz",
				res.Algorithm, u, i, cap)
		}
	}
	return nil
}
