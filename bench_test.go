// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (see the experiment index in DESIGN.md). Each BenchmarkFig*
// regenerates its figure once (cached across the reward/latency/runtime
// variants) and reports the series at the most-loaded x-point as custom
// metrics, so `go test -bench=. -benchmem` prints the rows the paper
// plots. The Benchmark<Algorithm>* entries at the bottom measure raw
// algorithm performance.
package mecoffload

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"mecoffload/internal/core"
	"mecoffload/internal/experiment"
	"mecoffload/internal/lp"
	"mecoffload/internal/mec"
	"mecoffload/internal/sim"
	"mecoffload/internal/workload"
)

// benchOpts keeps figure regeneration affordable inside benchmarks while
// still auditing every run.
func benchOpts() experiment.Options {
	return experiment.Options{Repetitions: 2, Seed: 7}
}

// tableCache lazily computes each figure once per `go test -bench` run.
type tableCache struct {
	once sync.Once
	tbl  *experiment.Table
	err  error
}

func (c *tableCache) get(b *testing.B, run func(experiment.Options) (*experiment.Table, error)) *experiment.Table {
	b.Helper()
	c.once.Do(func() { c.tbl, c.err = run(benchOpts()) })
	if c.err != nil {
		b.Fatal(c.err)
	}
	return c.tbl
}

var (
	fig3Cache, fig4Cache, fig5Cache, fig6Cache                 tableCache
	ablRoundCache, ablKappaCache, ablPolicyCache, ablSlotCache tableCache
	ablDiscCache, exactGapCache, ablRewardCache                tableCache
	regretOnce                                                 sync.Once
	regretResult                                               *experiment.RegretResult
	regretErr                                                  error
	learningOnce                                               sync.Once
	learningResult                                             *experiment.LearningCurve
	learningErr                                                error
	driftOnce                                                  sync.Once
	driftResult                                                *experiment.DriftResult
	driftErr                                                   error
)

// reportSeries emits the metric of every algorithm at the most-loaded
// x-point of the table.
func reportSeries(b *testing.B, tbl *experiment.Table, metric experiment.Metric) {
	b.Helper()
	row := tbl.Rows[len(tbl.Rows)-1]
	for _, algo := range tbl.Algorithms {
		cell := row.Cells[algo]
		if cell == nil {
			continue
		}
		var v float64
		switch metric {
		case experiment.MetricReward:
			v = cell.Reward.Mean()
		case experiment.MetricLatency:
			v = cell.LatencyMS.Mean()
		case experiment.MetricRuntime:
			v = cell.RuntimeMS.Mean()
		case experiment.MetricServed:
			v = cell.Served.Mean()
		}
		b.ReportMetric(v, algo+"_"+string(metric))
	}
}

func benchFigure(b *testing.B, cache *tableCache, run func(experiment.Options) (*experiment.Table, error), metric experiment.Metric) {
	b.Helper()
	tbl := cache.get(b, run)
	for i := 0; i < b.N; i++ {
		reportSeries(b, tbl, metric)
	}
}

// E1-E3: Fig. 3 (offline sweep over |R|).
func BenchmarkFig3Reward(b *testing.B) {
	benchFigure(b, &fig3Cache, experiment.Fig3, experiment.MetricReward)
}
func BenchmarkFig3Latency(b *testing.B) {
	benchFigure(b, &fig3Cache, experiment.Fig3, experiment.MetricLatency)
}
func BenchmarkFig3Runtime(b *testing.B) {
	benchFigure(b, &fig3Cache, experiment.Fig3, experiment.MetricRuntime)
}

// E4-E5: Fig. 4 (online sweep over |R|).
func BenchmarkFig4Reward(b *testing.B) {
	benchFigure(b, &fig4Cache, experiment.Fig4, experiment.MetricReward)
}
func BenchmarkFig4Latency(b *testing.B) {
	benchFigure(b, &fig4Cache, experiment.Fig4, experiment.MetricLatency)
}

// E6-E7: Fig. 5 (sweep over |BS|).
func BenchmarkFig5Reward(b *testing.B) {
	benchFigure(b, &fig5Cache, experiment.Fig5, experiment.MetricReward)
}
func BenchmarkFig5Latency(b *testing.B) {
	benchFigure(b, &fig5Cache, experiment.Fig5, experiment.MetricLatency)
}

// E8-E9: Fig. 6 (sweep over max data rate).
func BenchmarkFig6Reward(b *testing.B) {
	benchFigure(b, &fig6Cache, experiment.Fig6, experiment.MetricReward)
}
func BenchmarkFig6Latency(b *testing.B) {
	benchFigure(b, &fig6Cache, experiment.Fig6, experiment.MetricLatency)
}

// E10: Theorem 3 regret validation.
func BenchmarkRegret(b *testing.B) {
	regretOnce.Do(func() { regretResult, regretErr = experiment.Regret(benchOpts()) })
	if regretErr != nil {
		b.Fatal(regretErr)
	}
	last := len(regretResult.Checkpoints) - 1
	for i := 0; i < b.N; i++ {
		b.ReportMetric(regretResult.Regret[last].Mean(), "regret_T300")
		b.ReportMetric(regretResult.Bound[last], "bound_T300")
	}
}

// A1-A4: ablations.
func BenchmarkAblationRounding(b *testing.B) {
	benchFigure(b, &ablRoundCache, experiment.AblationRounding, experiment.MetricReward)
}
func BenchmarkAblationKappa(b *testing.B) {
	benchFigure(b, &ablKappaCache, experiment.AblationKappa, experiment.MetricReward)
}
func BenchmarkAblationPolicy(b *testing.B) {
	benchFigure(b, &ablPolicyCache, experiment.AblationPolicy, experiment.MetricReward)
}
func BenchmarkAblationSlotSize(b *testing.B) {
	benchFigure(b, &ablSlotCache, experiment.AblationSlotSize, experiment.MetricReward)
}
func BenchmarkAblationDiscretization(b *testing.B) {
	benchFigure(b, &ablDiscCache, experiment.AblationDiscretization, experiment.MetricReward)
}

func BenchmarkAblationRewardModel(b *testing.B) {
	benchFigure(b, &ablRewardCache, experiment.AblationRewardModel, experiment.MetricReward)
}

// E11: exact-vs-approximation gap on small instances.
func BenchmarkExactGap(b *testing.B) {
	benchFigure(b, &exactGapCache, experiment.ExactGap, experiment.MetricReward)
}

// E12: learning curve of the threshold bandit.
func BenchmarkLearningCurve(b *testing.B) {
	learningOnce.Do(func() { learningResult, learningErr = experiment.Learning(benchOpts()) })
	if learningErr != nil {
		b.Fatal(learningErr)
	}
	last := len(learningResult.WindowStart) - 1
	for i := 0; i < b.N; i++ {
		b.ReportMetric(learningResult.Learner[last].Mean(), "learner_lastWindow")
		b.ReportMetric(learningResult.Fixed[last].Mean(), "fixed_lastWindow")
	}
}

// E13: non-stationary scenario pack. The reported metrics are the
// final-checkpoint cumulative regret (vs the best fixed threshold in
// hindsight) of stationary UCB1 and the drift-aware policies on every
// builtin scenario, printed for inspection. The adaptivity gate is `make
// drift`: its seeded regret bounds fail when sw-ucb/d-ucb/restart:se
// regress toward ucb1 on the drifting scenarios.
func BenchmarkDriftAdaptivity(b *testing.B) {
	driftOnce.Do(func() { driftResult, driftErr = experiment.Drift(benchOpts()) })
	if driftErr != nil {
		b.Fatal(driftErr)
	}
	for i := 0; i < b.N; i++ {
		for _, sc := range driftResult.Scenarios {
			for _, p := range sc.Policies {
				last := len(sc.Checkpoints) - 1
				b.ReportMetric(sc.Regret[p][last].Mean(), sc.Name+"_"+p+"_regret")
			}
		}
	}
}

// --- Raw algorithm performance benchmarks -------------------------------

func benchFixture(b *testing.B, stations, requests int) (*mec.Network, []*mec.Request) {
	b.Helper()
	rng := rand.New(rand.NewSource(99))
	net, err := mec.RandomNetwork(stations, 3000, 3600, rng)
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := workload.Generate(workload.Config{
		NumRequests: requests, NumStations: stations, GeometricRates: true,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	return net, reqs
}

// BenchmarkAppro measures one full Appro run at the paper's largest scale
// (LP build + simplex + rounding passes), the dominant cost in Fig. 3(c).
func BenchmarkAppro(b *testing.B) {
	net, reqs := benchFixture(b, 20, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workload.Reset(reqs)
		if _, err := core.Appro(net, reqs, rand.New(rand.NewSource(int64(i))), core.ApproOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeu measures one full Heu run at the paper's largest scale.
func BenchmarkHeu(b *testing.B) {
	net, reqs := benchFixture(b, 20, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workload.Reset(reqs)
		if _, err := core.Heu(net, reqs, rand.New(rand.NewSource(int64(i))), core.HeuOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDynamicRRRun measures one full online simulation (120 slots,
// 300 requests) under DynamicRR, including all per-slot LP-PT solves.
func BenchmarkDynamicRRRun(b *testing.B) {
	rng := rand.New(rand.NewSource(98))
	net, err := mec.RandomNetwork(20, 3000, 3600, rng)
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := workload.Generate(workload.Config{
		NumRequests: 300, NumStations: 20, GeometricRates: true, ArrivalHorizon: 100,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workload.Reset(reqs)
		sched, err := sim.NewDynamicRR(sim.DynamicRROptions{})
		if err != nil {
			b.Fatal(err)
		}
		eng, err := sim.NewEngine(net, reqs, rand.New(rand.NewSource(int64(i))), sim.Config{Horizon: 120})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Run(sched); err != nil {
			b.Fatal(err)
		}
	}
}

// buildBenchLPPT constructs the per-slot LP-PT relaxation (constraints
// (9)-(12) truncated by (23)) over the given active set and residual
// occupancy, mirroring the internal model builder: variables y[j,i,l] with
// reward-mass objectives, one assign row per request, one capacity row per
// (station, slot index).
func buildBenchLPPT(net *mec.Network, reqs []*mec.Request, active []int, used []float64) *lp.Problem {
	slotMHz := net.SlotMHz()
	rt := float64(len(active))
	prob := lp.NewProblem(lp.Maximize)
	type svar struct {
		v    lp.Var
		i, l int
	}
	byReq := make(map[int][]svar, len(active))
	for _, j := range active {
		r := reqs[j]
		for i := 0; i < net.NumStations(); i++ {
			if !r.DelayFeasible(net, i, 0, mec.DefaultSlotLengthMS) {
				continue
			}
			capI := net.Capacity(i) - used[i]
			L := int(capI / slotMHz)
			for l := 1; l <= L; l++ {
				er := r.Dist.RewardMassBelow((capI - float64(l)*slotMHz) / net.CUnit())
				if er <= 0 {
					continue
				}
				v := prob.AddVariable(fmt.Sprintf("y[%d,%d,%d]", j, i, l), er)
				byReq[j] = append(byReq[j], svar{v: v, i: i, l: l})
			}
		}
	}
	for _, j := range active {
		vs := byReq[j]
		if len(vs) == 0 {
			continue
		}
		terms := make([]lp.Term, len(vs))
		for k, sv := range vs {
			terms[k] = lp.Term{Var: sv.v, Coef: 1}
		}
		if _, err := prob.AddConstraint(fmt.Sprintf("assign[%d]", j), lp.LE, 1, terms...); err != nil {
			panic(err)
		}
	}
	for i := 0; i < net.NumStations(); i++ {
		capI := net.Capacity(i) - used[i]
		L := int(capI / slotMHz)
		share := net.Capacity(i) / rt / net.CUnit() // LP-PT's C(bs_i)/|R_t|
		for l := 1; l <= L; l++ {
			slotCap := float64(l) * slotMHz / net.CUnit()
			var terms []lp.Term
			for _, j := range active {
				for _, sv := range byReq[j] {
					if sv.i != i || sv.l > l {
						continue
					}
					coef := reqs[j].Dist.ExpectedTruncatedRate(math.Min(slotCap, share))
					if coef > 0 {
						terms = append(terms, lp.Term{Var: sv.v, Coef: coef})
					}
				}
			}
			if len(terms) == 0 {
				continue
			}
			if _, err := prob.AddConstraint(fmt.Sprintf("cap[%d,%d]", i, l), lp.LE, 2*slotCap, terms...); err != nil {
				panic(err)
			}
		}
	}
	return prob
}

// benchSlotSequence pre-builds a drifting sequence of per-slot LP-PT
// instances at the default scenario: the active set churns and occupancy
// accumulates from slot to slot, exactly the warm-start workload of
// sim.DynamicRR.
func benchSlotSequence(b *testing.B, stations, requests, slots int) []*lp.Problem {
	b.Helper()
	net, reqs := benchFixture(b, stations, requests)
	rng := rand.New(rand.NewSource(41))
	used := make([]float64, net.NumStations())
	pending := make([]bool, len(reqs))
	for j := range pending {
		pending[j] = rng.Float64() < 0.5
	}
	probs := make([]*lp.Problem, slots)
	for s := range probs {
		// Slot-to-slot churn as the online engine produces it: a fraction
		// of the pending pool is admitted or expires, new arrivals join.
		for j := range pending {
			if pending[j] {
				if rng.Float64() < 0.15 {
					pending[j] = false
				}
			} else if rng.Float64() < 0.15 {
				pending[j] = true
			}
		}
		var active []int
		for j, p := range pending {
			if p {
				active = append(active, j)
			}
		}
		if len(active) == 0 {
			active = []int{rng.Intn(len(reqs))}
		}
		probs[s] = buildBenchLPPT(net, reqs, active, used)
		for i := range used {
			used[i] += rng.Float64() * 0.05 * (net.Capacity(i) - used[i])
		}
	}
	return probs
}

// BenchmarkLPColdVsWarm contrasts solving each slot of an LP-PT sequence
// from scratch against warm-starting from the previous slot's optimal
// basis (the production configuration). Slot 0 has no predecessor and is
// solved identically (cold) by both configurations, so it is primed in
// setup and both arms time the same slots 1..n — the steady-state cost a
// DynamicRR run pays per slot. The warm path must reach the same
// objectives — to 1e-9, checked every iteration — in a fraction of the
// time.
func BenchmarkLPColdVsWarm(b *testing.B) {
	const slots = 8
	probs := benchSlotSequence(b, 20, 200, slots)
	coldObj := make([]float64, slots)
	var basis0 *lp.Basis
	for s, p := range probs {
		sol, err := p.Solve()
		if err != nil || sol.Status != lp.StatusOptimal {
			b.Fatalf("slot %d: %v status %v", s, err, sol.Status)
		}
		coldObj[s] = sol.Objective
		if s == 0 {
			basis0 = sol.Basis
		}
	}
	solveSeq := func(b *testing.B, warmStart bool) {
		b.Helper()
		pivots := 0
		for i := 0; i < b.N; i++ {
			warm := basis0
			for s := 1; s < slots; s++ {
				var opts lp.SolveOptions
				if warmStart {
					opts.WarmStart = warm
				}
				sol, err := probs[s].SolveWithOptions(opts)
				if err != nil || sol.Status != lp.StatusOptimal {
					b.Fatalf("slot %d: %v status %v", s, err, sol.Status)
				}
				if d := math.Abs(sol.Objective - coldObj[s]); d > 1e-9*(1+math.Abs(coldObj[s])) {
					b.Fatalf("slot %d: objective drift %g", s, d)
				}
				warm = sol.Basis
				pivots += sol.Iterations
			}
		}
		b.ReportMetric(float64(pivots)/float64(b.N*(slots-1)), "pivots/solve")
	}
	b.Run("cold", func(b *testing.B) { solveSeq(b, false) })
	b.Run("warm", func(b *testing.B) { solveSeq(b, true) })
}

// BenchmarkLPPTSlot measures one warmed per-slot LP-PT solve in isolation:
// the steady-state marginal cost of a DynamicRR slot's LP once the basis
// from the previous slot is in hand.
func BenchmarkLPPTSlot(b *testing.B) {
	probs := benchSlotSequence(b, 20, 200, 2)
	seed, err := probs[0].Solve()
	if err != nil || seed.Status != lp.StatusOptimal {
		b.Fatalf("seed solve: %v status %v", err, seed.Status)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := probs[1].SolveWithOptions(lp.SolveOptions{WarmStart: seed.Basis})
		if err != nil || sol.Status != lp.StatusOptimal {
			b.Fatalf("%v status %v", err, sol.Status)
		}
	}
}

// BenchmarkOnlineBaselines measures the per-run cost of the three online
// baselines together (they are orders of magnitude cheaper than
// DynamicRR, matching the paper's running-time discussion).
func BenchmarkOnlineBaselines(b *testing.B) {
	rng := rand.New(rand.NewSource(97))
	net, err := mec.RandomNetwork(20, 3000, 3600, rng)
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := workload.Generate(workload.Config{
		NumRequests: 300, NumStations: 20, GeometricRates: true, ArrivalHorizon: 100,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	scheds := []sim.Scheduler{&sim.OnlineOCORP{}, &sim.OnlineGreedy{}, &sim.OnlineHeuKKT{}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sched := range scheds {
			workload.Reset(reqs)
			eng, err := sim.NewEngine(net, reqs, rand.New(rand.NewSource(int64(i))), sim.Config{Horizon: 120})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Run(sched); err != nil {
				b.Fatal(err)
			}
		}
	}
}
