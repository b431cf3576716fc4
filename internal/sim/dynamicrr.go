package sim

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"mecoffload/internal/bandit"
	"mecoffload/internal/core"
	"mecoffload/internal/mec"
)

// ErrBadThreshold reports an invalid threshold range for DynamicRR.
var ErrBadThreshold = errors.New("sim: invalid threshold range")

// ThresholdLearner abstracts the continuous-action bandit that picks
// DynamicRR's per-slot threshold: SelectValue returns an opaque arm key
// and the threshold value; Update feeds back the slot reward for that key.
// bandit.Lipschitz (fixed discretization, the paper's Algorithm 3) and
// bandit.Zooming (adaptive discretization, the Slivkins extension) both
// satisfy it.
type ThresholdLearner interface {
	SelectValue() (key int, value float64)
	Update(key int, reward float64)
}

// DynamicRROptions parameterizes NewDynamicRR.
type DynamicRROptions struct {
	// MinThresholdMHz and MaxThresholdMHz bound the per-request resource
	// threshold range Z = [C^th_min, C^th_max]. Zero values select
	// [200, 1200] MHz: from far below one request's expected demand to
	// above the largest possible demand.
	MinThresholdMHz, MaxThresholdMHz float64
	// Kappa is the number of discretized arms (zero selects 16).
	Kappa int
	// Policy overrides the arm-selection policy; nil selects the paper's
	// successive elimination. Used by the ablation study.
	Policy bandit.Policy
	// PolicySpec selects the arm policy by bandit.Parse grammar (e.g.
	// "sw-ucb:100", "restart:se") when Policy is nil; PolicySeed seeds
	// stochastic policies. Unlike Policy — a live instance that must not
	// be shared — a spec is safe to fan out to multiple schedulers: each
	// NewDynamicRR parses its own policy. The cluster relies on this to
	// give every shard an identical, independent learner.
	PolicySpec string
	PolicySeed int64
	// Learner overrides the whole threshold learner (e.g. a
	// bandit.Zooming for adaptive discretization); when set, Kappa and
	// Policy are ignored.
	Learner ThresholdLearner
	// Passes bounds per-slot rounding passes (zero selects 2).
	Passes int
	// RoundingDenominator mirrors core.ApproOptions (default 4).
	RoundingDenominator float64
}

// DynamicRR is Algorithm 3: the online learning scheduler for the dynamic
// reward maximization problem. Each slot it
//
//  1. selects a threshold C^th from the discretized interval Z' via a
//     Lipschitz bandit (successive elimination by default),
//  2. sorts the pending requests by increasing expected data rate and
//     admits them into R_t while the average free computing resource per
//     admitted request stays at least C^th (the round-robin share test):
//     R_t is the first ⌊free/C^th⌋ of that order, so only those are
//     selected and sorted, never the whole parked backlog,
//  3. schedules R_t with algorithm Heu, the LP replaced by LP-PT, and
//  4. feeds the slot's realized reward back to the bandit.
type DynamicRR struct {
	learner ThresholdLearner
	lip     *bandit.Lipschitz // non-nil only for the fixed-grid learner
	lastArm int
	lastCth float64
	played  bool
	opts    DynamicRROptions
	// inc is the decision cache: between slots it tracks which connected
	// components of the request-station candidate graph changed and
	// replays the cached decision of clean ones instead of rebuilding
	// their LP. Decisions match a re-solve of every component decision
	// for decision (oracle.DiffIncrementalFull pins the contract).
	inc *core.IncCache
	// keyBuf, sortedBuf and admittedBuf are per-slot scratch reused across
	// Schedule calls so the steady-state slot path stops allocating.
	keyBuf      []rateKey
	sortedBuf   []int
	admittedBuf []int
}

// rateKey is one pending request's place in R_t's admission order:
// increasing expected data rate, ties by request index.
type rateKey struct {
	rate float64
	req  int
}

var _ Scheduler = (*DynamicRR)(nil)
var _ FeedbackScheduler = (*DynamicRR)(nil)

// NewDynamicRR builds the scheduler.
func NewDynamicRR(opts DynamicRROptions) (*DynamicRR, error) {
	if opts.MinThresholdMHz == 0 && opts.MaxThresholdMHz == 0 {
		opts.MinThresholdMHz, opts.MaxThresholdMHz = 200, 1200
	}
	if opts.Kappa == 0 {
		opts.Kappa = 16
	}
	if opts.MinThresholdMHz <= 0 || opts.MaxThresholdMHz < opts.MinThresholdMHz || opts.Kappa < 1 {
		return nil, fmt.Errorf("%w: [%v, %v] kappa=%d",
			ErrBadThreshold, opts.MinThresholdMHz, opts.MaxThresholdMHz, opts.Kappa)
	}
	inc := core.NewIncCache()
	if opts.Learner != nil {
		return &DynamicRR{learner: opts.Learner, opts: opts, inc: inc}, nil
	}
	pol := opts.Policy
	if pol == nil && opts.PolicySpec != "" {
		var err error
		pol, err = bandit.Parse(opts.PolicySpec, opts.Kappa, opts.PolicySeed)
		if err != nil {
			return nil, err
		}
	}
	if pol == nil {
		var err error
		pol, err = bandit.NewSuccessiveElimination(opts.Kappa)
		if err != nil {
			return nil, err
		}
	}
	if pol.NumArms() != opts.Kappa {
		return nil, fmt.Errorf("%w: policy has %d arms, kappa=%d", ErrBadThreshold, pol.NumArms(), opts.Kappa)
	}
	lip, err := bandit.NewLipschitz(pol, opts.MinThresholdMHz, opts.MaxThresholdMHz)
	if err != nil {
		return nil, err
	}
	return &DynamicRR{learner: lip, lip: lip, opts: opts, inc: inc}, nil
}

// Name implements Scheduler.
func (d *DynamicRR) Name() string { return "DynamicRR" }

// UncertaintyAware implements Scheduler: DynamicRR builds on Heu and
// observes realized rates at admission.
func (d *DynamicRR) UncertaintyAware() bool { return true }

// Bandit exposes the fixed-grid threshold learner for regret analysis;
// nil when a custom Learner (e.g. zooming) is in use.
func (d *DynamicRR) Bandit() *bandit.Lipschitz { return d.lip }

// Learner exposes the active threshold learner.
func (d *DynamicRR) Learner() ThresholdLearner { return d.learner }

// IncStats reports the decision cache's clean/dirty counters.
func (d *DynamicRR) IncStats() core.IncStats { return d.inc.Stats() }

// SetIncCache swaps the scheduler's decision cache. It exists for
// internal/oracle, which passes nil to get the reference every
// differential compares against: the same scheduler re-solving every
// component every slot.
func (d *DynamicRR) SetIncCache(c *core.IncCache) { d.inc = c }

// LastThreshold returns the C^th value the bandit selected for the most
// recent Schedule call, and whether Schedule has run at all. The oracle's
// step checker uses it to re-derive the slot's admissible set under the
// round-robin share rule.
func (d *DynamicRR) LastThreshold() (float64, bool) {
	return d.lastCth, d.lastCth > 0
}

// Schedule implements Scheduler (Algorithm 3 steps 3-12).
func (d *DynamicRR) Schedule(eng *Engine, res *core.Result, t int, pending []int) ([]int, error) {
	arm, cth := d.learner.SelectValue()
	d.lastArm, d.lastCth, d.played = arm, cth, true

	// Step 10-11: increasing expected data rate; admit into R_t while the
	// average share of the free capacity stays at least C^th; nMax bounds
	// how much of the order is ever sorted.
	nMax := int(eng.FreeCapacity() / cth)
	if nMax <= 0 {
		return nil, nil
	}
	reqs := eng.Requests()
	sorted := d.sortByExpectedRate(reqs, pending, nMax)

	// Step 12: Heu with LP-PT (constraint (23) truncates by C(bs_i)/|R_t|),
	// each dirty component solved cold: R_t turns over nearly completely
	// from slot to slot, so no earlier basis is worth seeding from.
	rt := float64(len(sorted))
	net := eng.Net()
	shareCap := func(i int) float64 {
		return net.Capacity(i) / rt / net.CUnit()
	}
	waits := func(j int) int { return t - reqs[j].ArrivalSlot }
	_, err := core.ScheduleBatch(net, reqs, res, eng.Rng(), core.BatchOptions{
		Active:              sorted,
		Used:                eng.Used(),
		WaitSlots:           waits,
		ShareCapMBs:         shareCap,
		SlotLengthMS:        eng.SlotLengthMS(),
		RoundingDenominator: d.opts.RoundingDenominator,
		Passes:              d.opts.Passes,
		Distribute:          true,
		Inc:                 d.inc,
	})
	if err != nil {
		return nil, err
	}
	// The returned slice is read within the same Step and not retained;
	// reusing the buffer keeps the steady-state slot path allocation-free.
	admitted := d.admittedBuf[:0]
	for _, j := range sorted {
		if res.Decisions[j].Admitted {
			admitted = append(admitted, j)
		}
	}
	d.admittedBuf = admitted
	return admitted, nil
}

// sortByExpectedRate returns the first limit requests of pending in
// increasing expected data rate, ties by request index (all of pending when
// limit reaches its length), in a buffer the next call reuses. The pending
// set runs to thousands of requests when arrivals outpace capacity, while
// R_t takes a few dozen: each rate (a loop over the request's outcomes) is
// computed once, not once per comparison, and only the limit smallest keys
// are sorted. The order is total, so the prefix is exactly the full sort's.
func (d *DynamicRR) sortByExpectedRate(reqs []*mec.Request, pending []int, limit int) []int {
	keys := d.keyBuf[:0]
	for _, j := range pending {
		keys = append(keys, rateKey{rate: reqs[j].ExpectedRate(), req: j})
	}
	d.keyBuf = keys
	if limit < len(keys) {
		selectSmallest(keys, limit)
		keys = keys[:limit]
	}
	slices.SortFunc(keys, compareRate)
	sorted := d.sortedBuf[:0]
	for _, k := range keys {
		sorted = append(sorted, k.req)
	}
	d.sortedBuf = sorted
	return sorted
}

// compareRate is R_t's total order on rate keys.
func compareRate(a, b rateKey) int {
	switch {
	case a.rate < b.rate:
		return -1
	case a.rate > b.rate:
		return 1
	default:
		return a.req - b.req
	}
}

// selectSmallest reorders keys so that the k smallest under compareRate
// come first, in no particular order (0 < k < len(keys)): quickselect with
// a median-of-three pivot. Should the partitions keep coming out lopsided,
// it sorts what is left instead, so a crafted rate sequence cannot make a
// slot quadratic.
func selectSmallest(keys []rateKey, k int) {
	lo, hi := 0, len(keys)-1
	for budget := 2 * bits.Len(uint(len(keys))); lo < hi; budget-- {
		if budget == 0 {
			slices.SortFunc(keys[lo:hi+1], compareRate)
			return
		}
		// Median of keys[lo], keys[mid], keys[hi] to keys[hi] as the pivot.
		mid := int(uint(lo+hi) >> 1)
		if compareRate(keys[mid], keys[lo]) < 0 {
			keys[mid], keys[lo] = keys[lo], keys[mid]
		}
		if compareRate(keys[hi], keys[lo]) < 0 {
			keys[hi], keys[lo] = keys[lo], keys[hi]
		}
		if compareRate(keys[mid], keys[hi]) < 0 {
			keys[mid], keys[hi] = keys[hi], keys[mid]
		}
		p := lo
		for j := lo; j < hi; j++ {
			if compareRate(keys[j], keys[hi]) < 0 {
				keys[p], keys[j] = keys[j], keys[p]
				p++
			}
		}
		keys[p], keys[hi] = keys[hi], keys[p]
		// keys[lo:p] < keys[p] < keys[p+1:hi+1]; the k-th smallest is at
		// index k-1, on one side of p or at it.
		switch {
		case p == k-1:
			return
		case p < k-1:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
}

// Feedback implements FeedbackScheduler: the slot reward updates the arm
// that set this slot's threshold.
func (d *DynamicRR) Feedback(_ int, slotReward float64) {
	if !d.played {
		return
	}
	d.learner.Update(d.lastArm, slotReward)
	d.played = false
}
