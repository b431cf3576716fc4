package experiment

import (
	"mecoffload/internal/core"
	"mecoffload/internal/oracle"
	"mecoffload/internal/sim"
)

// DecisionCost compares the per-slot decision engines of the online
// scheduler — the oracle's full re-solve of every component every slot
// and DynamicRR as shipped (clean components replay their cached
// decision) — as the workload grows. Reward and latency columns measure
// fidelity: reuse is an exact reformulation, so any reward gap beyond rng
// noise is a bug (the oracle differential pins the stronger
// decision-for-decision claim on a shared trace; here each variant runs
// its own full simulation). The runtime column measures what the
// reformulation buys: clean components skip the LP entirely.
func DecisionCost(opts Options) (*Table, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	tbl := &Table{
		ID:         "decision-cost",
		Title:      "Per-slot decision cost: full re-solve vs decision reuse",
		XLabel:     "requests",
		Algorithms: []string{AlgoFullResolve, AlgoDynamicRR},
	}
	xs := defaultXRequests()
	err := sweep(opts, tbl, xs,
		func(x float64, rep int) (*instance, error) {
			xi := indexOf(xs, x)
			return genInstance(opts.Stations, onlineWorkload(int(x), opts.Horizon), instSeed(opts.Seed, 8, xi, rep))
		},
		func(inst *instance, algo string, x float64, rep int) (*core.Result, error) {
			xi := indexOf(xs, x)
			// Same run seed for every variant: fidelity columns compare
			// like against like on identical realization draws.
			run := opts.simulate(inst, runSeed(opts.Seed, 8, xi, rep, 0))
			if algo == AlgoFullResolve {
				return run(oracle.ReferenceDynamicRR(sim.DynamicRROptions{}))
			}
			return run(sim.NewScheduler(algo))
		})
	return tbl, err
}
