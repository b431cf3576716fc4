package core

import (
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
	Passes int
	// Distribute enables Heu's task-distribution hooks; without it the
	// batch runs Appro's consolidated admission.
	Distribute bool
	// Warm, when non-nil, seeds each rounding pass's LP-PT from the
	// optimal basis of the corresponding pass of the previous batch and
	// stores this batch's bases back, filed per (pass, component shard).
	// The online scheduler passes none: its slot LPs solve cold and
	// unnamed (see WarmCache). Warm and Inc are mutually exclusive
	// (ErrWarmWithInc).
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

// ScheduleBatch admits requests from opts.Active into the network using
// the rounding machinery of algorithms Appro/Heu, writing placements into
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
	// The waits are fixed within the slot, and so is constraint (11).
	sc.reach.fill(n, reqs, opts.Active, opts.WaitSlots, opts.SlotLengthMS)
	totalAdmitted := 0
	slotMHz := n.SlotMHz()
	for pass := 0; pass < maxPasses && len(undecided) > 0; pass++ {
		if pass > 0 {
			if half := slotMHz / 2; half >= n.SlotMHz()/8 {
				slotMHz = half
			}
		}
		capOf := func(i int) float64 { return n.Capacity(i) - used[i] }
		err := solveDecomposed(n, reqs, lpOptions{
			active:       undecided,
			capOf:        capOf,
			slotMHz:      slotMHz,
			shareCapFor:  opts.ShareCapMBs,
			waitSlots:    opts.WaitSlots,
			slotLengthMS: opts.SlotLengthMS,
			reach:        &sc.reach,
			names:        opts.Warm.nameTable(),
			positional:   true,
		}, solveCfg{warm: opts.Warm, pass: pass, inc: opts.Inc}, sc, &sc.merged)
		if err != nil {
			return totalAdmitted, err
		}
		if len(sc.merged.y) == 0 {
			break
		}
		sc.pre = roundAssignments(&sc.merged, reqs, rng, opts.RoundingDenominator, sc.pre[:0])
		admitted := admitSlotBySlot(n, reqs, sc.pre, rng, opts.SlotLengthMS, slotMHz, res, hooks, used, opts.WaitSlots, sc)
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
	return totalAdmitted, nil
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
