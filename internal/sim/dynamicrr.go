package sim

import (
	"errors"
	"fmt"
	"slices"

	"mecoffload/internal/bandit"
	"mecoffload/internal/core"
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
	// Learner overrides the whole threshold learner (e.g. a
	// bandit.Zooming for adaptive discretization); when set, Kappa and
	// Policy are ignored.
	Learner ThresholdLearner
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
//     kept and sorted, in one bounded pass over the engine's keys, and
//     only their requests are built,
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
	// average share of the free capacity stays at least C^th. R_t is the
	// first nMax = ⌊free/C^th⌋ of the order, and only those are ever
	// sorted. The ratio is clamped in float before it becomes an int: on a
	// mesh whose free MHz exceed MaxInt64·C^th the conversion would wrap.
	ratio := eng.FreeCapacity() / cth
	if !(ratio >= 1) { // below one share, or NaN
		return nil, nil
	}
	nMax := len(pending)
	if ratio < float64(nMax) {
		nMax = int(ratio)
	}
	sorted := d.sortByExpectedRate(eng.keys, pending, nMax)
	reqs := eng.Build(sorted)

	// Step 12: Heu with LP-PT (constraint (23) truncates by C(bs_i)/|R_t|),
	// each dirty component solved cold: R_t turns over nearly completely
	// from slot to slot, so no earlier basis is worth seeding from.
	rt := float64(len(sorted))
	net := eng.Net()
	shareCap := func(i int) float64 {
		return net.Capacity(i) / rt / net.CUnit()
	}
	waits := func(j int) int { return t - eng.keys[j].ArrivalSlot }
	_, err := core.ScheduleBatch(net, reqs, res, eng.Rng(), core.BatchOptions{
		Active:              sorted,
		Used:                eng.Used(),
		WaitSlots:           waits,
		ShareCapMBs:         shareCap,
		SlotLengthMS:        eng.SlotLengthMS(),
		RoundingDenominator: d.opts.RoundingDenominator,
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
// limit reaches its length), in a buffer the next call reuses. Each rate
// is read from the request's key. The pending set runs to thousands of
// requests when arrivals outpace capacity, while R_t takes a few dozen,
// so the limit smallest are kept in one pass: a max-heap of at most limit
// keys, whose top a key replaces only when it orders before it. Once the
// heap is full most keys cost that one compare, and no input order costs
// more than O(len(pending)·log limit). compareRate is a total order (no
// expected rate is NaN), so the heap, sorted, is exactly the prefix a
// full sort gives.
func (d *DynamicRR) sortByExpectedRate(reqKeys []Key, pending []int, limit int) []int {
	keys := d.keyBuf[:0]
	if limit >= len(pending) {
		for _, j := range pending {
			keys = append(keys, rateKey{rate: reqKeys[j].ExpectedRate, req: j})
		}
	} else if limit > 0 {
		for _, j := range pending[:limit] {
			keys = append(keys, rateKey{rate: reqKeys[j].ExpectedRate, req: j})
		}
		for i := limit/2 - 1; i >= 0; i-- {
			siftDown(keys, i)
		}
		top := keys[0]
		for _, j := range pending[limit:] {
			if r := reqKeys[j].ExpectedRate; r < top.rate || (r == top.rate && j < top.req) {
				keys[0] = rateKey{rate: r, req: j}
				siftDown(keys, 0)
				top = keys[0]
			}
		}
	}
	d.keyBuf = keys
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

// siftDown restores the max-heap order under compareRate below index i of
// heap, whose subtrees below i are already heaps.
func siftDown(heap []rateKey, i int) {
	for {
		c := 2*i + 1
		if c >= len(heap) {
			return
		}
		if c+1 < len(heap) && compareRate(heap[c+1], heap[c]) > 0 {
			c++
		}
		if compareRate(heap[c], heap[i]) <= 0 {
			return
		}
		heap[i], heap[c] = heap[c], heap[i]
		i = c
	}
}

// Feedback implements Scheduler: the slot reward updates the arm
// that set this slot's threshold.
func (d *DynamicRR) Feedback(_ int, slotReward float64) {
	if !d.played {
		return
	}
	d.learner.Update(d.lastArm, slotReward)
	d.played = false
}
