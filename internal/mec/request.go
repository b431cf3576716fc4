package mec

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"mecoffload/internal/dist"
)

// Errors returned by request constructors.
var (
	ErrNoTasks     = errors.New("mec: request needs at least one task")
	ErrNoDist      = errors.New("mec: request needs a rate-reward distribution")
	ErrNotRealized = errors.New("mec: request rate not yet realized")
	ErrBadTask     = errors.New("mec: invalid task")
	ErrBadRequest  = errors.New("mec: invalid request")
)

// Task is one stage M_{j,k} of an AR processing pipeline (pose estimation,
// mapping, world-model update, rendering, ...). Each task consumes the
// output matrix of its predecessor.
type Task struct {
	// Name identifies the pipeline stage, e.g. "render".
	Name string
	// OutputKb is the size of the task's output matrix per frame in
	// kilobits (paper Section VI-A: render 100Kb, track 64Kb, ...).
	OutputKb float64
	// WorkMS is the nominal delay d^pro of processing rho_unit data on a
	// SpeedFactor-1.0 station; the actual per-station delay is
	// WorkMS * station.SpeedFactor.
	WorkMS float64
}

// Request is one AR offloading request r_j. Its realized data rate is
// hidden until Realize is called — algorithms must schedule before they
// can observe it (Section III-B).
type Request struct {
	// ID indexes the request within its workload.
	ID int
	// ArrivalSlot is a_j, the slot the request enters the system.
	ArrivalSlot int
	// AccessStation is the base station closest to the request's user —
	// the ingress of its video stream.
	AccessStation int
	// Tasks is the AR processing pipeline M_{j,1..K_j}.
	Tasks []Task
	// DeadlineMS is the latency requirement D̂_j.
	DeadlineMS float64
	// DurationSlots is how many time slots the request's stream occupies
	// its service instance once scheduled; the instance is destroyed at
	// departure (Section III-B). Values below 1 are treated as 1. Offline
	// algorithms ignore it.
	DurationSlots int
	// Dist is the (rate, reward) distribution of the request.
	Dist *dist.RateReward

	realized bool
	outcome  dist.Outcome
}

// Validate reports whether the request is well-formed.
func (r *Request) Validate() error {
	if len(r.Tasks) == 0 {
		return fmt.Errorf("%w (request %d)", ErrNoTasks, r.ID)
	}
	for _, t := range r.Tasks {
		if t.OutputKb < 0 || t.WorkMS < 0 {
			return fmt.Errorf("%w: %+v (request %d)", ErrBadTask, t, r.ID)
		}
	}
	if r.Dist == nil {
		return fmt.Errorf("%w (request %d)", ErrNoDist, r.ID)
	}
	if r.DeadlineMS <= 0 {
		return fmt.Errorf("%w: deadline %v (request %d)", ErrBadRequest, r.DeadlineMS, r.ID)
	}
	return nil
}

// HoldSlots returns the stream duration in slots, at least 1.
func (r *Request) HoldSlots() int {
	if r.DurationSlots < 1 {
		return 1
	}
	return r.DurationSlots
}

// ExpectedRate returns E[rho_j].
func (r *Request) ExpectedRate() float64 { return r.Dist.ExpectedRate() }

// ExpectedReward returns the demand-independent expected reward E[RD_j].
func (r *Request) ExpectedReward() float64 { return r.Dist.ExpectedReward() }

// Realize samples the actual (rate, reward) outcome exactly once;
// subsequent calls return the same outcome. This models the data rate
// "instantiating and revealing" after scheduling (Section IV-A).
func (r *Request) Realize(rng *rand.Rand) dist.Outcome {
	if !r.realized {
		r.outcome = r.Dist.Sample(rng)
		r.realized = true
	}
	return r.outcome
}

// Realized reports whether the rate has been revealed, returning the
// outcome when it has.
func (r *Request) Realized() (dist.Outcome, bool) {
	return r.outcome, r.realized
}

// MustRealized returns the revealed outcome or an error when the request
// has not been scheduled yet.
func (r *Request) MustRealized() (dist.Outcome, error) {
	if !r.realized {
		return dist.Outcome{}, fmt.Errorf("%w (request %d)", ErrNotRealized, r.ID)
	}
	return r.outcome, nil
}

// ResetRealization clears the sampled outcome so the same workload can be
// replayed by another algorithm with a fresh (but seed-reproducible) draw.
func (r *Request) ResetRealization() {
	r.realized = false
	r.outcome = dist.Outcome{}
}

// ForceOutcome fixes the realized outcome; tests use it to make rate
// revelation deterministic.
func (r *Request) ForceOutcome(o dist.Outcome) {
	r.outcome = o
	r.realized = true
}

// WorkMS returns W = Σ_k WorkMS, the pipeline's total nominal work.
func (r *Request) WorkMS() float64 {
	total := 0.0
	for _, t := range r.Tasks {
		total += t.WorkMS
	}
	return total
}

// ProcDelayMS returns Eq. (2)'s processing term sum_k d^pro_{jki}: the
// total pipeline processing delay of the request on station st.
func (r *Request) ProcDelayMS(st BaseStation) float64 {
	total := 0.0
	for _, t := range r.Tasks {
		total += t.WorkMS * st.SpeedFactor
	}
	return total
}

// TaskProcDelayMS returns d^pro for a single task index on station st.
func (r *Request) TaskProcDelayMS(k int, st BaseStation) (float64, error) {
	if k < 0 || k >= len(r.Tasks) {
		return 0, fmt.Errorf("%w: task %d of %d (request %d)", ErrBadTask, k, len(r.Tasks), r.ID)
	}
	return r.Tasks[k].WorkMS * st.SpeedFactor, nil
}

// ServiceDelayMS returns the scheduling-independent latency of serving the
// request entirely on station i of network n: round-trip transmission from
// the access station plus full pipeline processing. Adding the waiting
// term (b_j - a_j) * slot length yields D_j of Eq. (2).
func (r *Request) ServiceDelayMS(n *Network, i int) float64 {
	return n.RoundTripDelayMS(r.AccessStation, i) + r.ProcDelayMS(n.stations[i])
}

// DelayFeasible reports whether serving the request on station i can meet
// its deadline with a waiting time of waitSlots scheduling slots.
func (r *Request) DelayFeasible(n *Network, i int, waitSlots int, slotLengthMS float64) bool {
	d := float64(waitSlots)*slotLengthMS + r.ServiceDelayMS(n, i)
	return d <= r.DeadlineMS
}

// AppendReach appends to dst, in ascending index order, the stations r
// can be served on within its deadline after waitSlots slots of waiting:
// exactly the stations DelayFeasible accepts, found by testing only
// n.Reach from r's access station instead of every station. When the reach
// is the whole network they are tested in index order, which needs no
// sort.
func (r *Request) AppendReach(dst []int, n *Network, waitSlots int, slotLengthMS float64) []int {
	reach := n.Reach(r.AccessStation, float64(waitSlots)*slotLengthMS, r.DeadlineMS)
	if len(reach) == len(n.stations) {
		for i := range n.stations {
			if r.DelayFeasible(n, i, waitSlots, slotLengthMS) {
				dst = append(dst, i)
			}
		}
		return dst
	}
	start := len(dst)
	for _, i := range reach {
		if r.DelayFeasible(n, i, waitSlots, slotLengthMS) {
			dst = append(dst, i)
		}
	}
	slices.Sort(dst[start:])
	return dst
}

// CloneShallow returns a copy of the request with realization state
// cleared. Task and distribution data are shared (both are immutable by
// convention).
func (r *Request) CloneShallow() *Request {
	c := *r
	c.realized = false
	c.outcome = dist.Outcome{}
	return &c
}
