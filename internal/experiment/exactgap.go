package experiment

import (
	"math/rand"
	"time"

	"mecoffload/internal/core"
	"mecoffload/internal/sim"
	"mecoffload/internal/workload"
)

// AlgoHindsight labels the full-information upper bound column.
const AlgoHindsight = "Hindsight"

// ExactGap (E11) quantifies the optimality gaps on instances small enough
// for branch and bound: the exact ILP optimum, Appro, and Heu, against
// the hindsight LP bound (reward of an omniscient scheduler that knows
// every realized rate). Theorem 1 promises E[Appro] >= Opt/8; in practice
// the measured gap is far smaller — this experiment shows by how much.
func ExactGap(opts Options) (*Table, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	tbl := &Table{
		ID:         "exactgap",
		Title:      "Exact vs approximation on small instances (E11)",
		XLabel:     "requests",
		Algorithms: []string{AlgoExact, AlgoAppro, AlgoHeu, AlgoHindsight},
	}
	const stations = 4
	xs := []float64{8, 12, 16, 24}
	err := sweep(opts, tbl, xs,
		func(x float64, rep int) (*instance, error) {
			xi := indexOf(xs, x)
			return genInstance(stations, offlineWorkload(int(x)), instSeed(opts.Seed, 11, xi, rep))
		},
		func(inst *instance, algo string, x float64, rep int) (*core.Result, error) {
			xi := indexOf(xs, x)
			seed := runSeed(opts.Seed, 11, xi, rep, algoIndex(tbl, algo))
			if algo == AlgoHindsight {
				return hindsightResult(inst, seed)
			}
			return sim.RunOffline(algo, inst.net, inst.reqs, rand.New(rand.NewSource(seed)), !opts.SkipAudit)
		})
	return tbl, err
}

// hindsightResult wraps the hindsight bound as a pseudo-result so it fits
// the table machinery.
func hindsightResult(inst *instance, seed int64) (*core.Result, error) {
	workload.Reset(inst.reqs)
	start := time.Now()
	bound, err := sim.HindsightBound(inst.net, inst.reqs, 1, rand.New(rand.NewSource(seed)), 0)
	if err != nil {
		return nil, err
	}
	res := core.NewResult(AlgoHindsight, len(inst.reqs))
	res.TotalReward, res.ExpectedLPBound, res.Runtime = bound, bound, time.Since(start)
	return res, nil
}
