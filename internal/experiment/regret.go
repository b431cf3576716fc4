package experiment

import (
	"math"
	"math/rand"

	"mecoffload/internal/bandit"
	"mecoffload/internal/sim"
	"mecoffload/internal/stats"
)

// Regret experiment defaults. The system is driven into saturation so the
// admission threshold actually binds and the arms separate.
const (
	regretKappa    = 8
	regretRequests = 900
	regretHorizon  = 300
)

// RegretResult holds the Theorem 3 validation: measured cumulative regret
// of DynamicRR's successive-elimination learner against the best fixed
// threshold in hindsight, alongside the theoretical bound shape.
type RegretResult struct {
	// Checkpoints are the horizons T at which regret is sampled.
	Checkpoints []int
	// Regret[i] aggregates measured regret at Checkpoints[i] over
	// repetitions.
	Regret []stats.Summary
	// Bound[i] is sqrt(kappa*T*log T) + T*eta*eps scaled to the observed
	// per-slot reward range — the shape DynamicRR must stay under (up to
	// constants).
	Bound []float64
	// Kappa and Epsilon document the discretization used.
	Kappa   int
	Epsilon float64
}

// Regret runs the Theorem 3 validation (experiment E10 in DESIGN.md). For
// each repetition it simulates DynamicRR and every fixed-threshold policy
// on the same saturated workload, then reports
//
//	regret(T) = max_arm cumReward_arm(T) - cumReward_DynamicRR(T)
//
// at geometric checkpoints. Sub-linear growth (flattening against the
// bound curve) is the reproduced claim.
func Regret(opts Options) (*RegretResult, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	checkpoints := []int{25, 50, 100, 150, 200, 250, regretHorizon}
	out := &RegretResult{
		Checkpoints: checkpoints,
		Regret:      make([]stats.Summary, len(checkpoints)),
		Kappa:       regretKappa,
	}

	maxSlotReward := 0.0
	for rep := 0; rep < opts.Repetitions; rep++ {
		seed := instSeed(opts.Seed, 10, 0, rep)
		cfg := onlineWorkload(regretRequests, regretHorizon)
		inst, err := genInstance(opts.Stations, cfg, seed)
		if err != nil {
			return nil, err
		}

		// DynamicRR with successive elimination.
		slot, lip, err := learnerRun(inst, regretKappa, nil, seed*13+1, regretHorizon, nil)
		if err != nil {
			return nil, err
		}
		seCum := cumulative(slot)
		out.Epsilon = lip.Epsilon()

		best, err := bestFixedCumulative(inst, regretKappa, seed*13+1, regretHorizon, nil)
		if err != nil {
			return nil, err
		}

		for i, T := range checkpoints {
			r := best[T-1] - seCum[T-1]
			if r < 0 {
				r = 0
			}
			out.Regret[i].Add(r)
		}
		if m := maxSlot(seCum); m > maxSlotReward {
			maxSlotReward = m
		}
	}

	// Bound curve scaled to per-slot reward units (Theorem 3 assumes
	// rewards normalized to [0, 1]).
	eta := maxSlotReward / (1200 - 200) // Lipschitz constant estimate over Z
	out.Bound = make([]float64, len(checkpoints))
	for i, T := range checkpoints {
		t := float64(T)
		out.Bound[i] = maxSlotReward*math.Sqrt(float64(regretKappa)*t*math.Log(t+1)) +
			t*eta*out.Epsilon
	}
	return out, nil
}

// learnerRun simulates DynamicRR with kappa arms and arm policy pol (nil:
// successive elimination) over inst for horizon slots, unaudited, on an
// engine seeded with seed and under drift (nil: none), and returns its
// per-slot rewards and its learner.
func learnerRun(inst *instance, kappa int, pol bandit.Policy, seed int64, horizon int, drift *sim.Drift) ([]float64, *bandit.Lipschitz, error) {
	sched, err := sim.NewDynamicRR(sim.DynamicRROptions{Kappa: kappa, Policy: pol})
	if err != nil {
		return nil, nil, err
	}
	_, slot, err := sim.Simulate(inst.net, inst.reqs, sched, rand.New(rand.NewSource(seed)),
		sim.RunOptions{Horizon: horizon, Drift: drift})
	return slot, sched.Bandit(), err
}

// bestFixedCumulative runs every fixed threshold arm of a kappa-arm
// discretization over inst as learnerRun does, and returns, per slot, the
// largest cumulative reward any one arm has earned by then: the best
// fixed threshold in hindsight that regret is measured against.
func bestFixedCumulative(inst *instance, kappa int, seed int64, horizon int, drift *sim.Drift) ([]float64, error) {
	best := make([]float64, horizon)
	for arm := 0; arm < kappa; arm++ {
		fixed, err := bandit.NewFixed(kappa, arm)
		if err != nil {
			return nil, err
		}
		slot, _, err := learnerRun(inst, kappa, fixed, seed, horizon, drift)
		if err != nil {
			return nil, err
		}
		for t, c := range cumulative(slot) {
			if c > best[t] {
				best[t] = c
			}
		}
	}
	return best, nil
}

// cumulative returns the prefix sums of a per-slot series.
func cumulative(slot []float64) []float64 {
	cum := make([]float64, len(slot))
	acc := 0.0
	for t, r := range slot {
		acc += r
		cum[t] = acc
	}
	return cum
}

// maxSlot returns the largest single-slot increment of a cumulative series.
func maxSlot(cum []float64) float64 {
	best, prev := 0.0, 0.0
	for _, c := range cum {
		if d := c - prev; d > best {
			best = d
		}
		prev = c
	}
	return best
}
