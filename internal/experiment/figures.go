package experiment

import (
	"fmt"
	"math/rand"

	"mecoffload/internal/core"
	"mecoffload/internal/rnd"
	"mecoffload/internal/sim"
	"mecoffload/internal/workload"
)

// defaultXRequests is the paper's request-count axis (Figs. 3 and 4).
func defaultXRequests() []float64 { return []float64{100, 150, 200, 250, 300} }

// instSeed derives the instance seed for an (experiment, x, rep) triple so
// every algorithm in one cell sees the same topology and workload. Labeled
// derivation (rnd.Derive) makes each cell's streams a pure function of its
// grid coordinates: no arithmetic carry can collide two cells, and the
// seed a cell sees never depends on which worker ran it.
func instSeed(base int64, fig, xi, rep int) int64 {
	return rnd.Derive(base, fmt.Sprintf("inst/fig%d/x%d/rep%d", fig, xi, rep))
}

// runSeed derives the realization seed; it differs per algorithm index so
// no algorithm can "peek" at another's rate draws.
func runSeed(base int64, fig, xi, rep, algoIdx int) int64 {
	return rnd.Derive(base, fmt.Sprintf("run/fig%d/x%d/rep%d/algo%d", fig, xi, rep, algoIdx))
}

// algoIndex locates an algorithm in a table's column order.
func algoIndex(tbl *Table, algo string) int {
	for i, a := range tbl.Algorithms {
		if a == algo {
			return i
		}
	}
	return 0
}

// offlineWorkload is the Fig. 3/5 workload: all requests present at slot 0
// with the paper's default distributions.
func offlineWorkload(numRequests int) workload.Config {
	return workload.Config{
		NumRequests:    numRequests,
		GeometricRates: true,
	}
}

// onlineWorkload spreads arrivals over the horizon (Figs. 4-6).
func onlineWorkload(numRequests, horizon int) workload.Config {
	cfg := offlineWorkload(numRequests)
	cfg.ArrivalHorizon = horizon
	return cfg
}

// Fig3 regenerates Fig. 3: total reward (a), average latency (b), and
// running time (c) of the offline algorithms Appro, Heu, Greedy, OCORP,
// and HeuKKT as the number of requests grows from 100 to 300.
func Fig3(opts Options) (*Table, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	tbl := &Table{
		ID:         "fig3",
		Title:      "Offline reward maximization vs number of requests (Fig. 3)",
		XLabel:     "requests",
		Algorithms: []string{AlgoAppro, AlgoHeu, AlgoOCORP, AlgoGreedy, AlgoHeuKKT},
	}
	xs := defaultXRequests()
	err := sweep(opts, tbl, xs,
		func(x float64, rep int) (*instance, error) {
			xi := indexOf(xs, x)
			return genInstance(opts.Stations, offlineWorkload(int(x)), instSeed(opts.Seed, 3, xi, rep))
		},
		func(inst *instance, algo string, x float64, rep int) (*core.Result, error) {
			xi := indexOf(xs, x)
			rng := rand.New(rand.NewSource(runSeed(opts.Seed, 3, xi, rep, algoIndex(tbl, algo))))
			return sim.RunOffline(algo, inst.net, inst.reqs, rng)
		})
	return tbl, err
}

// Fig4 regenerates Fig. 4: total reward (a) and average latency (b) of the
// online algorithms DynamicRR, OCORP, Greedy, and HeuKKT as the number of
// requests grows from 100 to 300 over a fixed arrival horizon.
func Fig4(opts Options) (*Table, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	tbl := &Table{
		ID:         "fig4",
		Title:      "Online dynamic reward maximization vs number of requests (Fig. 4)",
		XLabel:     "requests",
		Algorithms: sim.OnlineAlgorithms(),
	}
	xs := defaultXRequests()
	err := sweep(opts, tbl, xs,
		func(x float64, rep int) (*instance, error) {
			xi := indexOf(xs, x)
			return genInstance(opts.Stations, onlineWorkload(int(x), opts.Horizon), instSeed(opts.Seed, 4, xi, rep))
		},
		func(inst *instance, algo string, x float64, rep int) (*core.Result, error) {
			xi := indexOf(xs, x)
			return opts.simulate(inst, runSeed(opts.Seed, 4, xi, rep, algoIndex(tbl, algo)))(sim.NewScheduler(algo))
		})
	return tbl, err
}

// Fig5 regenerates Fig. 5: total reward (a) and average latency (b) of all
// six algorithms as the number of base stations grows from 10 to 50. The
// offline algorithms run on the offline workload; DynamicRR runs its
// online variant over the default horizon, as in the paper's mixed
// comparison.
func Fig5(opts Options) (*Table, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	tbl := &Table{
		ID:         "fig5",
		Title:      "All algorithms vs number of base stations (Fig. 5)",
		XLabel:     "stations",
		Algorithms: []string{AlgoAppro, AlgoHeu, AlgoDynamicRR, AlgoOCORP, AlgoGreedy, AlgoHeuKKT},
	}
	xs := []float64{10, 20, 30, 40, 50}
	err := sweep(opts, tbl, xs,
		func(x float64, rep int) (*instance, error) {
			xi := indexOf(xs, x)
			return genInstance(int(x), offlineWorkload(opts.Requests), instSeed(opts.Seed, 5, xi, rep))
		},
		func(inst *instance, algo string, x float64, rep int) (*core.Result, error) {
			xi := indexOf(xs, x)
			seed := runSeed(opts.Seed, 5, xi, rep, algoIndex(tbl, algo))
			if algo == AlgoDynamicRR {
				// DynamicRR is inherently online: replay the same requests
				// with arrivals spread over the horizon.
				spread := &instance{net: inst.net, reqs: workload.Clone(inst.reqs)}
				if err := workload.ApplyArrivals(spread.reqs, opts.Horizon, rand.New(rand.NewSource(seed))); err != nil {
					return nil, err
				}
				return opts.simulate(spread, seed)(sim.NewScheduler(algo))
			}
			return sim.RunOffline(algo, inst.net, inst.reqs, rand.New(rand.NewSource(seed)))
		})
	return tbl, err
}

// Fig6 regenerates Fig. 6: total reward (a) and average latency (b) of the
// online algorithms as the maximum data rate of a request grows from 15 to
// 35 MB/s (minimum rate fixed at 10 MB/s).
func Fig6(opts Options) (*Table, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	tbl := &Table{
		ID:         "fig6",
		Title:      "Online algorithms vs maximum data rate (Fig. 6)",
		XLabel:     "maxRateMBs",
		Algorithms: sim.OnlineAlgorithms(),
	}
	xs := []float64{15, 20, 25, 30, 35}
	err := sweep(opts, tbl, xs,
		func(x float64, rep int) (*instance, error) {
			xi := indexOf(xs, x)
			cfg := onlineWorkload(opts.Requests, opts.Horizon)
			cfg.MinRate = 10
			cfg.MaxRate = x
			return genInstance(opts.Stations, cfg, instSeed(opts.Seed, 6, xi, rep))
		},
		func(inst *instance, algo string, x float64, rep int) (*core.Result, error) {
			xi := indexOf(xs, x)
			return opts.simulate(inst, runSeed(opts.Seed, 6, xi, rep, algoIndex(tbl, algo)))(sim.NewScheduler(algo))
		})
	return tbl, err
}

// indexOf locates x in xs (xs are small and exact float constants).
func indexOf(xs []float64, x float64) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return 0
}
