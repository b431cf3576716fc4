package experiment

import (
	"fmt"
	"math"
	"math/rand"

	"mecoffload/internal/bandit"
	"mecoffload/internal/sim"
	"mecoffload/internal/stats"
	"mecoffload/internal/workload"
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
		seCum, lip, err := regretRun(inst, seed, nil)
		if err != nil {
			return nil, err
		}
		out.Epsilon = lip.Epsilon()

		// Every fixed arm on the same workload.
		best := make([]float64, regretHorizon)
		for arm := 0; arm < regretKappa; arm++ {
			fixed, err := bandit.NewFixed(regretKappa, arm)
			if err != nil {
				return nil, err
			}
			cum, _, err := regretRun(inst, seed, fixed)
			if err != nil {
				return nil, err
			}
			for t := range best {
				if cum[t] > best[t] {
					best[t] = cum[t]
				}
			}
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

// regretRun simulates one policy (nil = successive elimination) and
// returns the cumulative per-slot reward series.
func regretRun(inst *instance, seed int64, policy bandit.Policy) ([]float64, *bandit.Lipschitz, error) {
	workload.Reset(inst.reqs)
	sched, err := sim.NewDynamicRR(sim.DynamicRROptions{Kappa: regretKappa, Policy: policy})
	if err != nil {
		return nil, nil, err
	}
	eng, err := sim.NewEngine(inst.net, inst.reqs, rand.New(rand.NewSource(seed*13+1)), sim.Config{Horizon: regretHorizon})
	if err != nil {
		return nil, nil, err
	}
	if _, err := eng.Run(sched); err != nil {
		return nil, nil, err
	}
	slot := eng.SlotRewards()
	if len(slot) != regretHorizon {
		return nil, nil, fmt.Errorf("experiment: regret run produced %d slots, want %d", len(slot), regretHorizon)
	}
	cum := make([]float64, len(slot))
	acc := 0.0
	for t, r := range slot {
		acc += r
		cum[t] = acc
	}
	return cum, sched.Bandit(), nil
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
