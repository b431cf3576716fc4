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

	"mecoffload/internal/core"
	"mecoffload/internal/mec"
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
	// ErrUnknownAlgorithm and ErrAuditFailed are the algorithm table's
	// own errors, shared with the façade.
	ErrUnknownAlgorithm = sim.ErrUnknownAlgorithm
	ErrAuditFailed      = sim.ErrAuditFailed
	// ErrNegativeSize rejects a negative Repetitions, Stations, Requests
	// or Horizon (zero selects the default).
	ErrNegativeSize = errors.New("experiment: negative size")
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
}

// fill rejects a negative size and replaces each zero one by its default.
func (o *Options) fill() error {
	for _, f := range []struct {
		name string
		v    int
	}{{"Repetitions", o.Repetitions}, {"Stations", o.Stations}, {"Requests", o.Requests}, {"Horizon", o.Horizon}} {
		if f.v < 0 {
			return fmt.Errorf("%w: %s = %d", ErrNegativeSize, f.name, f.v)
		}
	}
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
	return nil
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

// simulate runs an online scheduler over inst for the sweep horizon (the
// arrival horizon plus 20 slots to drain) on an engine seeded with seed.
// It returns a function of the scheduler and its build error, so a call
// site passes its constructor's results straight in:
// opts.simulate(inst, seed)(sim.NewScheduler(algo)).
func (o Options) simulate(inst *instance, seed int64) func(sim.Scheduler, error) (*core.Result, error) {
	return func(sched sim.Scheduler, err error) (*core.Result, error) {
		if err != nil {
			return nil, err
		}
		res, _, err := sim.Simulate(inst.net, inst.reqs, sched, rand.New(rand.NewSource(seed)),
			sim.RunOptions{Horizon: o.Horizon + 20, Audit: true})
		return res, err
	}
}

// cellJob is one repetition of one (row, algorithm) grid cell of a
// sweep — the unit of parallelism. Repetitions share no state, so any
// worker may run any of them.
type cellJob struct {
	row     int
	algoIdx int
	rep     int
}

// sweep runs a generic experiment grid in parallel and aggregates cells.
//   - xs: the x-axis values;
//   - makeInstance(x, rep) draws the instance;
//   - run(inst, algo, x, rep) executes one algorithm on it.
//
// Determinism contract: the produced Table is identical for every
// Options.Parallel value (wall-clock RuntimeMS aside). Jobs are
// independent — each draws its own instance and derives its rngs from
// (x, rep) only — and results are aggregated after a barrier in fixed
// (row, algorithm, repetition) order, so neither worker count nor
// completion order can reorder a Summary's Add sequence.
func sweep(opts Options, tbl *Table, xs []float64,
	makeInstance func(x float64, rep int) (*instance, error),
	run func(inst *instance, algo string, x float64, rep int) (*core.Result, error)) error {

	tbl.Rows = make([]Row, len(xs))
	for i, x := range xs {
		tbl.Rows[i] = Row{X: x}
	}

	jobs := make([]cellJob, 0, len(xs)*len(tbl.Algorithms)*opts.Repetitions)
	for i := range xs {
		for a := range tbl.Algorithms {
			for rep := 0; rep < opts.Repetitions; rep++ {
				jobs = append(jobs, cellJob{row: i, algoIdx: a, rep: rep})
			}
		}
	}
	results := make([]*core.Result, len(jobs))
	errs := make([]error, len(jobs))
	runJob := func(k int) {
		jb := jobs[k]
		inst, err := makeInstance(xs[jb.row], jb.rep)
		if err == nil {
			results[k], err = run(inst, tbl.Algorithms[jb.algoIdx], xs[jb.row], jb.rep)
		}
		errs[k] = err
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
		res := results[k]
		c := tbl.Rows[jb.row].cell(tbl.Algorithms[jb.algoIdx])
		c.Reward.Add(res.TotalReward)
		c.LatencyMS.Add(res.AvgLatencyMS())
		c.RuntimeMS.Add(float64(res.Runtime.Microseconds()) / 1000)
		c.Served.Add(float64(res.Served))
	}
	return firstErr
}
