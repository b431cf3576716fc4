// Package experiment regenerates every figure of the paper's evaluation
// (Section VI): the offline comparison of Appro/Heu against OCORP, Greedy,
// and HeuKKT (Fig. 3), the online comparison of DynamicRR against the
// online baselines (Fig. 4), the base-station sweep (Fig. 5), the
// maximum-data-rate sweep (Fig. 6), a validation of Theorem 3's regret
// bound, and the ablation studies listed in DESIGN.md. Each experiment
// produces a Table whose rows are x-axis points and whose cells aggregate
// repetitions into mean +/- 95% CI.
package experiment

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"mecoffload/internal/baseline"
	"mecoffload/internal/core"
	"mecoffload/internal/mec"
	"mecoffload/internal/oracle"
	"mecoffload/internal/sim"
	"mecoffload/internal/stats"
	"mecoffload/internal/workload"
)

// Algorithm names used across tables.
const (
	AlgoAppro     = "Appro"
	AlgoHeu       = "Heu"
	AlgoExact     = "Exact"
	AlgoOCORP     = "OCORP"
	AlgoGreedy    = "Greedy"
	AlgoHeuKKT    = "HeuKKT"
	AlgoDynamicRR = "DynamicRR"
	// AlgoFullResolve is the oracle's reference DynamicRR: no decision
	// reuse, every component's LP re-solved every slot. Decisions match
	// AlgoDynamicRR decision for decision (oracle.DiffIncrementalFull);
	// decision-cost runs it as the baseline reuse is priced against.
	AlgoFullResolve = "DynamicRR-Full"
)

// Errors returned by the harness.
var (
	ErrUnknownAlgorithm = errors.New("experiment: unknown algorithm")
	ErrAuditFailed      = errors.New("experiment: result failed feasibility audit")
)

// Defaults shared by all experiments (paper Section VI-A).
const (
	DefaultStations    = 20
	DefaultMinCapMHz   = 3000
	DefaultMaxCapMHz   = 3600
	DefaultRepetitions = 5
	DefaultHorizon     = 100
	DefaultRequests    = 200
)

// Options configures an experiment run.
type Options struct {
	// Repetitions is the number of independent (topology, workload) draws
	// each cell aggregates (zero selects 5).
	Repetitions int
	// Seed derives all per-repetition seeds; runs are reproducible.
	Seed int64
	// Stations is the number of base stations (zero selects 20);
	// overridden by the Fig. 5 sweep.
	Stations int
	// Requests is the workload size where the x-axis is not |R| (zero
	// selects 200).
	Requests int
	// Horizon is the online arrival horizon in slots (zero selects 100).
	Horizon int
	// Parallel bounds worker goroutines (zero selects GOMAXPROCS).
	Parallel int
	// SkipAudit disables the per-run feasibility audit (benchmarks only).
	SkipAudit bool
	// Exp3Gamma and Exp3Alpha configure the Exp3 arm policy in
	// ablation-policy: gamma is the exploration mix, alpha the
	// Exp3.1-style floor added to every weight update. Zero values select
	// bandit.DefaultExp3Gamma / bandit.DefaultExp3Alpha.
	Exp3Gamma, Exp3Alpha float64
}

func (o *Options) fill() {
	if o.Repetitions == 0 {
		o.Repetitions = DefaultRepetitions
	}
	if o.Stations == 0 {
		o.Stations = DefaultStations
	}
	if o.Requests == 0 {
		o.Requests = DefaultRequests
	}
	if o.Horizon == 0 {
		o.Horizon = DefaultHorizon
	}
	if o.Parallel == 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
}

// Cell aggregates one (x, algorithm) point over repetitions.
type Cell struct {
	Reward    stats.Summary
	LatencyMS stats.Summary
	RuntimeMS stats.Summary
	Served    stats.Summary
}

// Row is one x-axis point of a table.
type Row struct {
	X     float64
	Cells map[string]*Cell
}

// Table is one regenerated figure.
type Table struct {
	// ID is the experiment identifier from DESIGN.md (e.g. "fig3").
	ID string
	// Title describes the experiment.
	Title string
	// XLabel names the x-axis.
	XLabel string
	// Algorithms fixes the column order.
	Algorithms []string
	// Rows holds one entry per x value, ascending.
	Rows []Row
}

// cell fetches (allocating) the cell for an algorithm in a row.
func (r *Row) cell(algo string) *Cell {
	if r.Cells == nil {
		r.Cells = make(map[string]*Cell)
	}
	c := r.Cells[algo]
	if c == nil {
		c = &Cell{}
		r.Cells[algo] = c
	}
	return c
}

// instance is one generated (network, workload) draw.
type instance struct {
	net  *mec.Network
	reqs []*mec.Request
}

// genInstance draws a network and workload from a seed.
func genInstance(stations int, wcfg workload.Config, seed int64) (*instance, error) {
	rng := rand.New(rand.NewSource(seed))
	net, err := mec.RandomNetwork(stations, DefaultMinCapMHz, DefaultMaxCapMHz, rng)
	if err != nil {
		return nil, err
	}
	wcfg.NumStations = stations
	reqs, err := workload.Generate(wcfg, rng)
	if err != nil {
		return nil, err
	}
	return &instance{net: net, reqs: reqs}, nil
}

// runOffline executes one offline algorithm on a fresh realization of the
// instance's workload. warm (may be nil) carries LP warm-start bases
// between repetitions of the same experiment cell: the repetitions differ
// only in the random draw, so the previous repetition's optimal basis is a
// near-optimal starting point for the next.
func runOffline(inst *instance, algo string, seed int64, audit bool, warm *core.WarmCache) (*core.Result, error) {
	workload.Reset(inst.reqs)
	rng := rand.New(rand.NewSource(seed))
	var (
		res *core.Result
		err error
	)
	switch algo {
	case AlgoAppro:
		res, err = core.Appro(inst.net, inst.reqs, rng, core.ApproOptions{Warm: warm})
	case AlgoHeu:
		res, err = core.Heu(inst.net, inst.reqs, rng, core.HeuOptions{Warm: warm})
	case AlgoExact:
		res, err = core.Exact(inst.net, inst.reqs, rng, core.ExactOptions{})
	case AlgoOCORP:
		res, err = baseline.OCORP(inst.net, inst.reqs, rng, baseline.Options{})
	case AlgoGreedy:
		res, err = baseline.Greedy(inst.net, inst.reqs, rng, baseline.Options{})
	case AlgoHeuKKT:
		res, err = baseline.HeuKKT(inst.net, inst.reqs, rng, baseline.Options{})
	default:
		return nil, fmt.Errorf("%w: %q (offline)", ErrUnknownAlgorithm, algo)
	}
	if err != nil {
		return nil, fmt.Errorf("experiment: %s: %w", algo, err)
	}
	if audit {
		if err := core.Audit(inst.net, inst.reqs, res); err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrAuditFailed, algo, err)
		}
	}
	return res, nil
}

// newScheduler builds the online scheduler for an algorithm name.
func newScheduler(algo string) (sim.Scheduler, error) {
	switch algo {
	case AlgoDynamicRR:
		return sim.NewDynamicRR(sim.DynamicRROptions{})
	case AlgoFullResolve:
		return oracle.ReferenceDynamicRR(sim.DynamicRROptions{})
	case AlgoOCORP:
		return &sim.OnlineOCORP{}, nil
	case AlgoGreedy:
		return &sim.OnlineGreedy{}, nil
	case AlgoHeuKKT:
		return &sim.OnlineHeuKKT{}, nil
	default:
		return nil, fmt.Errorf("%w: %q (online)", ErrUnknownAlgorithm, algo)
	}
}

// runOnline executes one online algorithm over the simulation horizon.
func runOnline(inst *instance, algo string, seed int64, horizon int, audit bool) (*core.Result, error) {
	workload.Reset(inst.reqs)
	sched, err := newScheduler(algo)
	if err != nil {
		return nil, err
	}
	eng, err := sim.NewEngine(inst.net, inst.reqs, rand.New(rand.NewSource(seed)), sim.Config{Horizon: horizon})
	if err != nil {
		return nil, err
	}
	res, err := eng.Run(sched)
	if err != nil {
		return nil, fmt.Errorf("experiment: %s: %w", algo, err)
	}
	if audit {
		if err := sim.AuditTimeline(inst.net, inst.reqs, res, horizon); err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrAuditFailed, algo, err)
		}
	}
	return res, nil
}

// cellJob is one (row, algorithm) grid cell of a sweep — the unit of
// parallelism. A cell's repetitions run sequentially inside its job so
// the chain of LP warm-start bases they share is identical for every
// worker count.
type cellJob struct {
	row     int
	algoIdx int
}

// sweep runs a generic experiment grid in parallel and aggregates cells.
//   - xs: the x-axis values;
//   - makeInstance(x, rep) draws the instance;
//   - run(inst, algo, rep, warm) executes one algorithm; warm is the
//     cell's shared LP warm-start cache (repetitions of one cell solve
//     structurally identical LPs, so their bases transfer).
//
// Determinism contract: the produced Table is identical for every
// Options.Parallel value (wall-clock RuntimeMS aside). Cells are
// independent — each owns its warm cache and derives its rngs from
// (x, rep) only — and results are aggregated after a barrier in fixed
// (row, algorithm, repetition) order, so neither worker count nor
// completion order can reorder a Summary's Add sequence.
func sweep(opts Options, tbl *Table, xs []float64,
	makeInstance func(x float64, rep int) (*instance, error),
	run func(inst *instance, algo string, x float64, rep int, warm *core.WarmCache) (*core.Result, error)) error {

	tbl.Rows = make([]Row, len(xs))
	for i, x := range xs {
		tbl.Rows[i] = Row{X: x}
	}

	jobs := make([]cellJob, 0, len(xs)*len(tbl.Algorithms))
	for i := range xs {
		for a := range tbl.Algorithms {
			jobs = append(jobs, cellJob{row: i, algoIdx: a})
		}
	}
	results := make([][]*core.Result, len(jobs)) // per job, then per rep
	errs := make([]error, len(jobs))
	runJob := func(k int) {
		jb := jobs[k]
		algo := tbl.Algorithms[jb.algoIdx]
		warm := core.NewWarmCache()
		out := make([]*core.Result, 0, opts.Repetitions)
		for rep := 0; rep < opts.Repetitions; rep++ {
			inst, err := makeInstance(xs[jb.row], rep)
			if err != nil {
				errs[k] = err
				return
			}
			res, err := run(inst, algo, xs[jb.row], rep, warm)
			if err != nil {
				errs[k] = err
				return
			}
			out = append(out, res)
		}
		results[k] = out
	}

	workers := opts.Parallel
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for k := range jobs {
			runJob(k)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					k := int(next.Add(1)) - 1
					if k >= len(jobs) {
						return
					}
					runJob(k)
				}
			}()
		}
		wg.Wait()
	}

	// Deterministic aggregation: fixed (row, algorithm, repetition) order.
	var firstErr error
	for k, jb := range jobs {
		if errs[k] != nil {
			if firstErr == nil {
				firstErr = errs[k]
			}
			continue
		}
		c := tbl.Rows[jb.row].cell(tbl.Algorithms[jb.algoIdx])
		for _, res := range results[k] {
			c.Reward.Add(res.TotalReward)
			c.LatencyMS.Add(res.AvgLatencyMS())
			c.RuntimeMS.Add(float64(res.Runtime.Microseconds()) / 1000)
			c.Served.Add(float64(res.Served))
		}
	}
	return firstErr
}
