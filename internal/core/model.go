// Package core implements the paper's primary contribution (Section IV):
// the exact ILP formulation ILP-RM, the resource-slot-indexed LP
// relaxation, the randomized-rounding approximation algorithm Appro
// (Algorithm 1, approximation ratio 1/8), and the task-migration heuristic
// Heu (Algorithm 2) for the reward maximization problem with a set of
// non-preemptive AR requests.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"mecoffload/internal/mec"
)

// Errors returned by the algorithms in this package.
var (
	ErrNoRequests = errors.New("core: no requests")
	ErrNilNetwork = errors.New("core: nil network")
	ErrLPFailed   = errors.New("core: LP relaxation did not solve to optimality")
	// ErrWarmWithInc rejects a batch that sets both BatchOptions.Warm and
	// BatchOptions.Inc: the decision cache replays a component's first
	// solve, which is only the solve a re-solve would repeat when it is
	// cold.
	ErrWarmWithInc = errors.New("core: a batch cannot both warm start and reuse decisions")
)

// Decision records the fate of one request under an algorithm run.
type Decision struct {
	// RequestID indexes the request within the workload.
	RequestID int
	// Admitted reports whether the request was scheduled at all.
	Admitted bool
	// Evicted reports that the scheduling algorithm itself terminated the
	// request after observing that its realized demand did not fit
	// (Eq. (8): no reward when the remaining resource slots cannot hold
	// the actual data rate). Evicted requests stop consuming resources.
	// Only demand-uncertainty-aware algorithms evict; the coarse-grained
	// baselines never observe realized rates and therefore never do.
	Evicted bool
	// Served reports whether the request earned its reward: admitted, not
	// evicted, its station(s) not overloaded by realized demand, and its
	// latency requirement met. Filled by Evaluate.
	Served bool
	// Station is the primary (starting) base station, -1 when rejected.
	Station int
	// Slot is the 1-based starting resource slot, 0 when rejected.
	Slot int
	// TaskStations maps each pipeline task to the station executing it.
	// For consolidated assignments every entry equals Station; algorithm
	// Heu may migrate individual tasks (nil when rejected).
	TaskStations []int
	// Reward is the realized reward earned (0 unless Served).
	Reward float64
	// LatencyMS is the experienced latency D_j (0 unless Admitted).
	LatencyMS float64
	// WaitSlots is b_j - a_j, the scheduling wait in time slots.
	WaitSlots int
}

// Result aggregates one algorithm run over a workload.
type Result struct {
	// Algorithm names the algorithm that produced the result.
	Algorithm string
	// Decisions has one entry per request, indexed by request ID.
	Decisions []Decision
	// TotalReward is the sum of realized rewards.
	TotalReward float64
	// ExpectedLPBound, when the algorithm solved an LP relaxation, is the
	// LP optimum — an upper bound on the offline expected optimum
	// (Lemma 1).
	ExpectedLPBound float64
	// Admitted and Served count requests in each state.
	Admitted, Served int
	// Runtime is the wall-clock time of the algorithm run.
	Runtime time.Duration
}

// AvgLatencyMS returns the mean experienced latency over served requests,
// 0 when none were served.
func (r *Result) AvgLatencyMS() float64 {
	total, n := 0.0, 0
	for _, d := range r.Decisions {
		if d.Served {
			total += d.LatencyMS
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// AcceptanceRatio returns the fraction of requests served.
func (r *Result) AcceptanceRatio() float64 {
	if len(r.Decisions) == 0 {
		return 0
	}
	return float64(r.Served) / float64(len(r.Decisions))
}

// String summarizes the result for logs.
func (r *Result) String() string {
	return fmt.Sprintf("%s: reward=%.1f served=%d/%d avgLatency=%.1fms runtime=%s",
		r.Algorithm, r.TotalReward, r.Served, len(r.Decisions), r.AvgLatencyMS(), r.Runtime)
}

// demandShare returns the realized MHz demand task k of request r places
// on its station, apportioned by processing-work share.
func demandShare(n *mec.Network, r *mec.Request, k int, rate float64) float64 {
	totalWork := 0.0
	for _, t := range r.Tasks {
		totalWork += t.WorkMS
	}
	share := 1.0 / float64(len(r.Tasks))
	if totalWork > 0 {
		share = r.Tasks[k].WorkMS / totalWork
	}
	return n.RateToMHz(rate) * share
}

// Evaluate settles the rewards of a placement. Algorithms fill Admitted,
// Evicted, Station, Slot, TaskStations, WaitSlots, and LatencyMS; Evaluate
// then realizes any still-hidden data rates, computes each station's
// realized load from the non-evicted admitted requests, and marks a
// request Served — crediting its realized reward — iff
//
//   - it was admitted and not evicted,
//   - no station running one of its tasks is overloaded (a station whose
//     realized demand exceeds its capacity cannot sustain line-rate stream
//     processing, so every request on it misses its continuous-processing
//     requirement), and
//   - its experienced latency D_j is within its requirement (Eq. (1)).
//
// This is where uncertainty-obliviousness costs the baselines: they pack
// stations to 100% of capacity on expected rates and never watch the
// realized rates, so unlucky realizations overload whole stations.
func Evaluate(n *mec.Network, reqs []*mec.Request, res *Result, rng *rand.Rand) {
	load := make([]float64, n.NumStations())
	for id := range res.Decisions {
		d := &res.Decisions[id]
		d.Served = false
		d.Reward = 0
		if !d.Admitted || d.Evicted {
			continue
		}
		out := reqs[id].Realize(rng)
		for k, st := range d.TaskStations {
			load[st] += demandShare(n, reqs[id], k, out.Rate)
		}
	}
	overloaded := make([]bool, n.NumStations())
	for i := range overloaded {
		overloaded[i] = load[i] > n.Capacity(i)+capacityTol
	}
	res.TotalReward = 0
	res.Served = 0
	res.Admitted = 0
	for id := range res.Decisions {
		d := &res.Decisions[id]
		if !d.Admitted {
			continue
		}
		res.Admitted++
		if d.Evicted {
			continue
		}
		ok := d.LatencyMS <= reqs[id].DeadlineMS+1e-9
		for _, st := range d.TaskStations {
			if overloaded[st] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		out, _ := reqs[id].Realized()
		d.Served = true
		d.Reward = out.Reward
		res.TotalReward += out.Reward
		res.Served++
	}
}

// capacityTol absorbs float drift in capacity comparisons (MHz).
const capacityTol = 1e-6

// Audit verifies the physical consistency of an evaluated result: station
// capacities are respected by the realized demands of served requests,
// latency requirements hold, rewards match realizations, and counters
// balance. It returns nil when feasible.
//
// Tests and the experiment harness run Audit after every algorithm; it is
// the executable form of the paper's feasibility lemmas.
func Audit(n *mec.Network, reqs []*mec.Request, res *Result) error {
	if len(res.Decisions) != len(reqs) {
		return fmt.Errorf("core: audit: %d decisions for %d requests", len(res.Decisions), len(reqs))
	}
	used := make([]float64, n.NumStations())
	totalReward := 0.0
	served, admitted := 0, 0
	for id, d := range res.Decisions {
		if d.RequestID != id {
			return fmt.Errorf("core: audit: decision %d has request ID %d", id, d.RequestID)
		}
		r := reqs[id]
		if !d.Admitted {
			if d.Served || d.Evicted || d.Reward != 0 {
				return fmt.Errorf("core: audit: rejected request %d has served=%v evicted=%v reward=%v",
					id, d.Served, d.Evicted, d.Reward)
			}
			continue
		}
		admitted++
		if d.Station < 0 || d.Station >= n.NumStations() {
			return fmt.Errorf("core: audit: request %d on invalid station %d", id, d.Station)
		}
		if len(d.TaskStations) != len(r.Tasks) {
			return fmt.Errorf("core: audit: request %d has %d task placements for %d tasks",
				id, len(d.TaskStations), len(r.Tasks))
		}
		if !d.Served {
			if d.Reward != 0 {
				return fmt.Errorf("core: audit: unserved request %d has reward %v", id, d.Reward)
			}
			continue
		}
		if d.Evicted {
			return fmt.Errorf("core: audit: request %d both served and evicted", id)
		}
		served++
		if d.LatencyMS > r.DeadlineMS+1e-6 {
			return fmt.Errorf("core: audit: served request %d latency %.2f ms exceeds deadline %.2f ms",
				id, d.LatencyMS, r.DeadlineMS)
		}
		out, err := r.MustRealized()
		if err != nil {
			return fmt.Errorf("core: audit: served request %d: %w", id, err)
		}
		if math.Abs(d.Reward-out.Reward) > 1e-9 {
			return fmt.Errorf("core: audit: request %d reward %v != realized %v", id, d.Reward, out.Reward)
		}
		totalReward += d.Reward
		for k, st := range d.TaskStations {
			if st < 0 || st >= n.NumStations() {
				return fmt.Errorf("core: audit: request %d task %d on invalid station %d", id, k, st)
			}
			used[st] += demandShare(n, r, k, out.Rate)
		}
	}
	if math.Abs(totalReward-res.TotalReward) > 1e-6*(1+math.Abs(res.TotalReward)) {
		return fmt.Errorf("core: audit: total reward %v != sum of decisions %v", res.TotalReward, totalReward)
	}
	if served != res.Served || admitted != res.Admitted {
		return fmt.Errorf("core: audit: counts served=%d/%d admitted=%d/%d",
			res.Served, served, res.Admitted, admitted)
	}
	for i, u := range used {
		if u > n.Capacity(i)+capacityTol {
			return fmt.Errorf("core: audit: station %d used %.1f MHz of %.1f by served requests", i, u, n.Capacity(i))
		}
	}
	return nil
}

// latencyOf computes D_j for a (possibly distributed) task placement:
// round-trip from the access station to the first task's station, plus
// per-task processing, plus a round-trip between consecutive stations
// whenever the pipeline migrates (intermediate matrices travel over the
// backhaul and results return to the user).
func latencyOf(n *mec.Network, r *mec.Request, taskStations []int, waitSlots int, slotLengthMS float64) float64 {
	d := float64(waitSlots) * slotLengthMS
	prev := r.AccessStation
	for k, st := range taskStations {
		d += n.RoundTripDelayMS(prev, st)
		station, err := n.Station(st)
		if err != nil {
			return math.Inf(1)
		}
		work, err := r.TaskProcDelayMS(k, station)
		if err != nil {
			return math.Inf(1)
		}
		d += work
		prev = st
	}
	return d
}

// consolidated returns a task placement with every task on one station.
func consolidated(r *mec.Request, station int) []int {
	out := make([]int, len(r.Tasks))
	for k := range out {
		out[k] = station
	}
	return out
}
