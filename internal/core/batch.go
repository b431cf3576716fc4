package core

import (
	"math"
	"math/rand"

	"mecoffload/internal/mec"
)

// BatchOptions parameterizes one per-time-slot scheduling step of the
// dynamic reward maximization problem (Section V): algorithm Heu with the
// LP replaced by LP-PT, run over the pending requests R_t against the
// residual capacities left by currently-running requests.
type BatchOptions struct {
	// Active lists the request indices of R_t to schedule this slot.
	Active []int
	// Used is the realized MHz currently committed per station; admissions
	// update it in place so the caller's ledger stays authoritative.
	Used []float64
	// WaitSlots returns b_j - a_j for a request if it were scheduled this
	// slot; nil means zero waiting.
	WaitSlots func(req int) int
	// ShareCapMBs returns LP-PT's per-station truncation C(bs_i)/|R_t|
	// converted to MB/s (constraint (23)); nil disables the truncation,
	// degenerating LP-PT to the offline LP.
	ShareCapMBs func(station int) float64
	// SlotLengthMS converts waiting slots to milliseconds (default
	// mec.DefaultSlotLengthMS).
	SlotLengthMS float64
	// RoundingDenominator mirrors ApproOptions (default 4).
	RoundingDenominator float64
	// Passes mirrors ApproOptions; the per-slot default is 4 — the
	// bandit threshold already throttles R_t, so the batch tries to admit
	// most of it (the next time slot retries whatever remains pending).
	// Appro and Heu run the same loop with a default of maxAutoPasses.
	// A per-slot refined pass caps each station's slot columns at the
	// paper grid's count (roundingLoop).
	Passes int
	// Distribute enables Heu's task-distribution hooks; without it the
	// batch runs Appro's consolidated admission.
	Distribute bool
	// Warm, when non-nil, seeds each rounding pass's LP-PT from the
	// optimal basis of the corresponding pass of the previous batch and
	// stores this batch's bases back, filed per (pass, component shard).
	// Only the benchmark's layer probes pass one: the online scheduler's
	// slot LPs and the offline passes solve cold and unnamed (see
	// WarmCache). Warm and Inc are mutually exclusive (ErrWarmWithInc).
	Warm *WarmCache
	// Inc is the decision cache: connected components of the candidate
	// graph whose exact LP input signature matches a cached solve are
	// clean and replay it; only dirty components touch the LP. The online
	// scheduler always passes one. Nil re-solves every component every
	// slot — the reference the oracle differentials compare against,
	// decision for decision (oracle.DiffIncrementalFull pins the
	// contract).
	Inc *IncCache
}

// ScheduleBatch admits requests from opts.Active into the network with
// the iterative rounding of algorithms Appro/Heu, writing placements into
// res.Decisions and the occupancy ledger opts.Used. Rewards are NOT
// settled here — the online engine evaluates slot by slot. It returns the
// number of newly admitted (possibly evicted-on-realization) requests.
func ScheduleBatch(n *mec.Network, reqs []*mec.Request, res *Result, rng *rand.Rand, opts BatchOptions) (int, error) {
	if n == nil {
		return 0, ErrNilNetwork
	}
	if len(reqs) == 0 {
		return 0, ErrNoRequests
	}
	if opts.Warm != nil && opts.Inc != nil {
		return 0, ErrWarmWithInc
	}
	if len(opts.Active) == 0 {
		return 0, nil
	}
	admitted, _, err := roundingLoop(n, reqs, res, rng, opts, true)
	return admitted, err
}

// roundingLoop is the one iterative-rounding pass loop: ScheduleBatch runs
// it over a slot's batch (perSlot), Appro and Heu (solveOffline) over a
// whole offline instance. Each pass splits the LP over the undecided
// requests and residual capacities into its components, draws the
// rounding uniforms, solves the components those draws can round in,
// rounds, and admits slot by slot; the loop stops after opts.Passes
// passes, once every request is decided, or at the first pass that admits
// nothing. With Distribute, the requests still undecided then go through
// Heu's final distribution pass. It returns the number of requests
// admitted and pass 0's LP optimum.
//
// A component none of whose requests drew below 1/denominator cannot
// place anything, so it is not solved (drawRounding). Decisions and the
// rng stream are those of solving every component and then drawing. Only
// offline pass 0 solves every component, because its optimum is
// Result.ExpectedLPBound; the per-slot batch reports no bound.
//
// Pass 0 solves on the paper's grid C_l. Pass k >= 1 refines it to
// C_l/2^k, floored at C_l/8. Per slot, each station's refined grid is
// instead its residual R_i split into ⌈C(bs_i)/C_l⌉ equal slots, floored
// at C_l/2^k,
//
//	g_i = max(C_l/2^k, R_i/⌈C(bs_i)/C_l⌉) <= C_l,
//
// so a (request, station) pair gets at most as many slot columns as the
// paper's grid has slots on the station. The grid is below C_l whenever
// the residual is below the capacity: with C_l = 1000 and C(bs_i) = 3000,
// R_i = 2500 gets 833 MHz slots in pass 1 and R_i = 1200 gets 400 MHz
// slots in pass 2. Offline, every station shares the halving grid.
func roundingLoop(n *mec.Network, reqs []*mec.Request, res *Result, rng *rand.Rand, opts BatchOptions, perSlot bool) (int, float64, error) {
	if opts.SlotLengthMS == 0 {
		opts.SlotLengthMS = mec.DefaultSlotLengthMS
	}
	if opts.RoundingDenominator == 0 {
		opts.RoundingDenominator = 4
	}
	maxPasses := opts.Passes
	if maxPasses <= 0 {
		maxPasses = 4
	}

	used := opts.Used
	sc := getSlotScratch()
	defer putSlotScratch(sc)
	var hooks admissionHooks
	if opts.Distribute {
		hooks = admissionHooks{
			migrate:  newTaskMigrator(n, reqs, res, used, opts.SlotLengthMS, opts.Active),
			overflow: newOverflowSplitter(n, reqs, res, used, opts.SlotLengthMS),
		}
	}

	sc.undecided = append(sc.undecided[:0], opts.Active...)
	undecided := sc.undecided
	// The waits are fixed within the call, and so is constraint (11).
	sc.reach.fill(n, reqs, opts.Active, opts.WaitSlots, opts.SlotLengthMS)
	totalAdmitted, bound := 0, 0.0
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
		var grid []float64
		if perSlot && pass > 0 {
			grid = sc.fillGrid(n, used, slotMHz)
		}
		capOf := func(i int) float64 { return n.Capacity(i) - used[i] }
		err := solveDecomposed(n, reqs, lpOptions{
			active:       undecided,
			capOf:        capOf,
			slotMHz:      slotMHz,
			grid:         grid,
			shareCapFor:  opts.ShareCapMBs,
			waitSlots:    opts.WaitSlots,
			slotLengthMS: opts.SlotLengthMS,
			reach:        &sc.reach,
		}, solveCfg{
			warm: opts.Warm, pass: pass, inc: opts.Inc,
			rng: rng, denom: opts.RoundingDenominator, skipDead: perSlot || pass > 0,
		}, sc, &sc.merged)
		if err != nil {
			return totalAdmitted, bound, err
		}
		if pass == 0 {
			bound = sc.merged.obj
		}
		if len(sc.merged.y) == 0 {
			// Nothing was solved, so the draws can place nothing: the
			// pass would admit no request.
			break
		}
		sc.pre = roundAssignments(&sc.merged, reqs, sc.draws, opts.RoundingDenominator, sc.pre[:0])
		admitted := admitSlotBySlot(n, reqs, sc.pre, rng, opts.SlotLengthMS, slotMHz, grid, res, hooks, used, opts.WaitSlots, sc)
		totalAdmitted += admitted
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
	if opts.Distribute && len(undecided) > 0 {
		// Heu's final adjustment: distribute what consolidated rounding
		// could not place over the fragmented residual capacity.
		before := countAdmitted(res, undecided)
		distributionPass(n, reqs, undecided, res, used, rng, opts.SlotLengthMS, opts.WaitSlots)
		totalAdmitted += countAdmitted(res, undecided) - before
	}
	return totalAdmitted, bound, nil
}

// fillGrid sets the per-slot batch's refined grid of every station,
// g_i = max(fine, R_i/⌈C(bs_i)/C_l⌉), from the residual capacities at the
// pass's start, and returns it.
func (sc *slotScratch) fillGrid(n *mec.Network, used []float64, fine float64) []float64 {
	nS := n.NumStations()
	if cap(sc.grid) < nS {
		sc.grid = make([]float64, nS)
	}
	sc.grid = sc.grid[:nS]
	for i := range sc.grid {
		capI := n.Capacity(i)
		sc.grid[i] = max(fine, (capI-used[i])/math.Ceil(capI/n.SlotMHz()))
	}
	return sc.grid
}

// countAdmitted counts admitted decisions among the given request indices.
func countAdmitted(res *Result, ids []int) int {
	c := 0
	for _, j := range ids {
		if res.Decisions[j].Admitted {
			c++
		}
	}
	return c
}
