package core

import (
	"cmp"
	"math/rand"
	"slices"
	"time"

	"mecoffload/internal/mec"
)

// maxAutoPasses bounds Appro's and Heu's iterative-rounding loop when
// Passes is 0.
const maxAutoPasses = 16

// ApproOptions tunes Algorithm 1.
type ApproOptions struct {
	// RoundingDenominator is the divisor in the rounding probability
	// y_jil / denominator. The paper uses 4 (Lemma 2 depends on it);
	// other values are exposed for the ablation study. Zero selects 4.
	RoundingDenominator float64
	// Passes controls iterative rounding. Passes == 1 runs the literal
	// Algorithm 1: one LP solve, one randomized rounding, one slot-by-slot
	// admission sweep — the variant Theorem 1's 1/8 ratio is proved for.
	// Passes == 0 (the default used in the experiments) repeats the
	// procedure on the residual instance (undecided requests, residual
	// capacities) until a pass admits nothing, at most maxAutoPasses
	// times, which only adds reward: each pass individually retains the
	// per-pass guarantee, and the union fills the capacity the single
	// analyzed pass leaves idle by design (it admits each request with
	// probability <= y/4).
	Passes int
}

// tentative is one rounded (request, station, slot) pre-assignment; rate
// is the request's expected data rate, the admission sweep's sort key.
type tentative struct {
	req     int
	station int
	slot    int
	rate    float64
}

// Appro is Algorithm 1: the randomized 1/8-approximation for the reward
// maximization problem with the tasks of each request consolidated into a
// single base station.
//
//  1. Solve the resource-slot-indexed LP relaxation.
//  2. Assign request r_j to slot l of station bs_i with probability
//     y_jil/4 (and leave it unassigned with the residual probability).
//  3. Admit slot-by-slot: at slot l of each station, candidates are
//     considered in increasing (expected) data-rate order and admitted
//     only while the realized occupancy of already-admitted requests is
//     at most l*C_l.
//
// Rates realize (and rewards are earned or forfeited) only after
// admission, exactly as in the paper's model of uncertain demands.
func Appro(n *mec.Network, reqs []*mec.Request, rng *rand.Rand, opts ApproOptions) (*Result, error) {
	return solveOffline(n, reqs, rng, "Appro", BatchOptions{
		RoundingDenominator: opts.RoundingDenominator,
		Passes:              opts.Passes,
	})
}

// solveOffline runs ScheduleBatch's pass loop for Appro and Heu: every
// request active, waiting nothing, against a fresh occupancy ledger, with
// maxAutoPasses passes when opts.Passes is 0, and the refined passes on
// the uniform halving grid. It records pass 0's LP optimum as the
// result's bound and settles the rewards.
func solveOffline(n *mec.Network, reqs []*mec.Request, rng *rand.Rand, name string, opts BatchOptions) (*Result, error) {
	if n == nil {
		return nil, ErrNilNetwork
	}
	if len(reqs) == 0 {
		return nil, ErrNoRequests
	}
	start := time.Now()
	res := NewResult(name, len(reqs))
	opts.Active = make([]int, len(reqs))
	for j := range opts.Active {
		opts.Active[j] = j
	}
	opts.Used = make([]float64, n.NumStations()) // realized MHz per station
	if opts.Passes <= 0 {
		opts.Passes = maxAutoPasses
	}
	_, bound, err := roundingLoop(n, reqs, res, rng, opts, false)
	if err != nil {
		return nil, err
	}
	res.ExpectedLPBound = bound
	Evaluate(n, reqs, res, rng)
	res.Runtime = time.Since(start)
	return res, nil
}

// roundAssignments performs Algorithm 1 step 2 over the merged model m:
// each request lands on (i, l) with probability y_jil/denom, or nowhere.
// It draws nothing: draws holds the uniform drawRounding drew for each
// request of the pass, by position in m.reqs, before the solve — in
// ascending global index order, one per request with a candidate station,
// so the rng consumption is independent of how the LP was decomposed and
// of which components were solved. Only requests holding variables are
// read. pre is an optional reused buffer; the filled slice is returned.
func roundAssignments(m *mergedModel, reqs []*mec.Request, draws []float64, denom float64, pre []tentative) []tentative {
	for p, j := range m.reqs {
		if len(m.byReq[j]) == 0 {
			continue
		}
		u := draws[p]
		acc := 0.0
		for _, idx := range m.byReq[j] {
			acc += m.y[idx] / denom
			if u < acc {
				sv := m.vars[idx]
				pre = append(pre, tentative{req: j, station: sv.station, slot: sv.slot, rate: reqs[j].ExpectedRate()})
				break
			}
		}
	}
	return pre
}

// migrator is Heu's congestion hook: given the station whose occupancy
// test failed, the slot index, and the per-station occupancy this pass, it
// may free resources by migrating a task of an already-admitted request.
// It reports whether it changed anything; the caller re-tests admission.
type migrator func(station int, slot int, passUsed func(int) float64) bool

// overflowHandler is Heu's distribution hook: called when request req's
// realized demand does not fit station, it may distribute some of the
// request's tasks to other stations so the remainder fits. It updates the
// occupancy ledger and the decision's TaskStations/LatencyMS itself and
// reports success; on failure the request is evicted.
type overflowHandler func(req, station int) bool

// admissionHooks bundles the extension points that turn Algorithm 1's
// admission sweep into Algorithm 2.
type admissionHooks struct {
	migrate  migrator
	overflow overflowHandler
}

// admitSlotBySlot performs Algorithm 1 steps 3-7 over the tentative
// assignments, filling res, and returns the number of newly admitted
// requests. used is the global realized-occupancy ledger (MHz per
// station); the per-slot occupancy test measures only this pass's growth
// on top of the snapshot taken at entry, against l slots of the pass's
// grid: grid[i] on station i when grid is non-nil, slotMHz otherwise.
// When migrate is non-nil (Algorithm 2), a failed occupancy test triggers
// one migration attempt before the request is rejected.
func admitSlotBySlot(n *mec.Network, reqs []*mec.Request, pre []tentative, rng *rand.Rand, slotLenMS, slotMHz float64, grid []float64, res *Result, hooks admissionHooks, used []float64, waitOf func(int) int, sc *slotScratch) int {
	base := growFloatsClear(&sc.base, len(used))
	copy(base, used)
	passUsed := func(i int) float64 { return used[i] - base[i] }

	// The sweep goes slot by slot, station by station, and within one
	// (station, slot) group in increasing expected data rate (the realized
	// rate is still hidden at this point), ties by request index: a total
	// order, so one sort of the tentatives lays the whole sweep out.
	slices.SortFunc(pre, func(a, b tentative) int {
		if c := cmp.Compare(a.slot, b.slot); c != 0 {
			return c
		}
		if c := cmp.Compare(a.station, b.station); c != 0 {
			return c
		}
		if c := cmp.Compare(a.rate, b.rate); c != 0 {
			return c
		}
		return cmp.Compare(a.req, b.req)
	})

	admitted := 0
	for _, t := range pre {
		j, i, l := t.req, t.station, t.slot
		g := slotMHz
		if grid != nil {
			g = grid[i]
		}
		limit := float64(l) * g
		if passUsed(i) > limit {
			if hooks.migrate == nil || !hooks.migrate(i, l, passUsed) || passUsed(i) > limit {
				continue // reject r_j (Algorithm 1 step 6 fails)
			}
		}
		r := reqs[j]
		d := &res.Decisions[j]
		d.Admitted = true
		d.Station = i
		d.Slot = l
		if waitOf != nil {
			d.WaitSlots = waitOf(j)
		}
		d.TaskStations = consolidated(r, i)
		d.LatencyMS = latencyOf(n, r, d.TaskStations, d.WaitSlots, slotLenMS)
		admitted++
		// The rate instantiates and reveals on scheduling. The
		// algorithm watches realized demand: an overflowing
		// request is evicted before it can overload the station
		// (it earns nothing, per Eq. (8)).
		out := r.Realize(rng)
		demand := n.RequestMHz(r, out.Rate)
		switch {
		case fitsWithin(used[i], demand, n.Capacity(i)):
			used[i] += demand
		case hooks.overflow != nil && hooks.overflow(j, i):
			// Distributed across stations; ledgers updated by the
			// hook.
		default:
			d.Evicted = true
		}
	}
	return admitted
}
