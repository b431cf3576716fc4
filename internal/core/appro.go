package core

import (
	"cmp"
	"math/rand"
	"slices"
	"time"

	"mecoffload/internal/mec"
)

// maxAutoPasses bounds the iterative-rounding loop when Passes is 0.
const maxAutoPasses = 16

// ApproOptions tunes Algorithm 1.
type ApproOptions struct {
	// SlotLengthMS converts waiting slots into milliseconds (default
	// mec.DefaultSlotLengthMS).
	SlotLengthMS float64
	// RoundingDenominator is the divisor in the rounding probability
	// y_jil / denominator. The paper uses 4 (Lemma 2 depends on it);
	// other values are exposed for the ablation study. Zero selects 4.
	RoundingDenominator float64
	// Passes controls iterative rounding. Passes == 1 runs the literal
	// Algorithm 1: one LP solve, one randomized rounding, one slot-by-slot
	// admission sweep — the variant Theorem 1's 1/8 ratio is proved for.
	// Passes == 0 (the default used in the experiments) repeats the
	// procedure on the residual instance (undecided requests, residual
	// capacities) until a pass admits nothing, which only adds reward:
	// each pass individually retains the per-pass guarantee, and the
	// union fills the capacity the single analyzed pass leaves idle by
	// design (it admits each request with probability <= y/4).
	Passes int
	// Warm, when non-nil, seeds each rounding pass's LP from the optimal
	// basis of the corresponding pass of a previous structurally similar
	// run (e.g. an earlier repetition of the same experiment cell) and
	// stores this run's bases back. Warm starting never changes the LP
	// optimum — only the simplex iteration count.
	Warm *WarmCache
}

func (o *ApproOptions) fill() {
	if o.SlotLengthMS == 0 {
		o.SlotLengthMS = mec.DefaultSlotLengthMS
	}
	if o.RoundingDenominator == 0 {
		o.RoundingDenominator = 4
	}
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
	opts.fill()
	return runRounding(n, reqs, rng, opts, "Appro", nil)
}

// runRounding is the shared engine of Appro and Heu: iterative LP-guided
// randomized rounding with slot-by-slot admission, optionally with Heu's
// task-migration hook.
func runRounding(n *mec.Network, reqs []*mec.Request, rng *rand.Rand, opts ApproOptions, name string, mkHooks func(*Result, []float64) admissionHooks) (*Result, error) {
	if n == nil {
		return nil, ErrNilNetwork
	}
	if len(reqs) == 0 {
		return nil, ErrNoRequests
	}
	start := time.Now()

	res := &Result{Algorithm: name, Decisions: make([]Decision, len(reqs))}
	for j := range res.Decisions {
		res.Decisions[j] = Decision{RequestID: j, Station: -1}
	}

	used := make([]float64, n.NumStations()) // realized MHz per station
	var hooks admissionHooks
	if mkHooks != nil {
		hooks = mkHooks(res, used)
	}

	sc := getSlotScratch()
	defer putSlotScratch(sc)
	undecided := growInts(&sc.undecided, len(reqs))
	for j := range undecided {
		undecided[j] = j
	}
	maxPasses := opts.Passes
	if maxPasses <= 0 {
		maxPasses = maxAutoPasses
	}

	slotMHz := n.SlotMHz()
	for pass := 0; pass < maxPasses && len(undecided) > 0; pass++ {
		if pass > 0 {
			// Refine the slot grid on the residual instance: leftovers
			// smaller than one default slot would otherwise be invisible
			// to the slot-indexed relaxation. Pass 0 always uses the
			// paper's grid.
			if half := slotMHz / 2; half >= n.SlotMHz()/8 {
				slotMHz = half
			}
		}
		capOf := func(i int) float64 { return n.Capacity(i) - used[i] }
		err := solveDecomposed(n, reqs, lpOptions{
			active:       undecided,
			capOf:        capOf,
			slotMHz:      slotMHz,
			slotLengthMS: opts.SlotLengthMS,
			names:        opts.Warm.nameTable(),
		}, solveCfg{warm: opts.Warm, pass: pass}, sc, &sc.merged)
		if err != nil {
			return nil, err
		}
		if pass == 0 {
			res.ExpectedLPBound = sc.merged.obj
		}
		if len(sc.merged.y) == 0 {
			break
		}

		sc.pre = roundAssignments(sc.merged.vars, sc.merged.byReq, sc.merged.y, reqs, rng, opts.RoundingDenominator, sc.pre[:0])
		admitted := admitSlotBySlot(n, reqs, sc.pre, rng, opts.SlotLengthMS, slotMHz, res, hooks, used, nil, sc)
		if admitted == 0 {
			break
		}
		next := undecided[:0]
		for _, j := range undecided {
			if !res.Decisions[j].Admitted {
				next = append(next, j)
			}
		}
		undecided = next
	}

	if hooks.finish != nil {
		hooks.finish()
	}
	Evaluate(n, reqs, res, rng)
	res.Runtime = time.Since(start)
	return res, nil
}

// roundAssignments performs Algorithm 1 step 2: each request lands on
// (i, l) with probability y_jil/denom, or nowhere. Requests draw in
// ascending global index order (one draw per request with variables), so
// the rng consumption is independent of how the LP was decomposed. pre is
// an optional reused buffer; the filled slice is returned.
func roundAssignments(vars []slotVar, byReq [][]int, y []float64, reqs []*mec.Request, rng *rand.Rand, denom float64, pre []tentative) []tentative {
	for j := range reqs {
		if len(byReq[j]) == 0 {
			continue
		}
		u := rng.Float64()
		acc := 0.0
		for _, idx := range byReq[j] {
			acc += y[idx] / denom
			if u < acc {
				sv := vars[idx]
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
	// finish runs once after the rounding passes converge and before the
	// final evaluation; Heu uses it to distribute still-rejected requests
	// over fragmented residual capacity.
	finish func()
}

// admitSlotBySlot performs Algorithm 1 steps 3-7 over the tentative
// assignments, filling res, and returns the number of newly admitted
// requests. used is the global realized-occupancy ledger (MHz per
// station); the per-slot occupancy test measures only this pass's growth
// on top of the snapshot taken at entry. When migrate is non-nil
// (Algorithm 2), a failed occupancy test triggers one migration attempt
// before the request is rejected.
func admitSlotBySlot(n *mec.Network, reqs []*mec.Request, pre []tentative, rng *rand.Rand, slotLenMS, slotMHz float64, res *Result, hooks admissionHooks, used []float64, waitOf func(int) int, sc *slotScratch) int {
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
		limit := float64(l) * slotMHz
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
		demand := n.RateToMHz(out.Rate)
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
