package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"mecoffload/internal/baseline"
	"mecoffload/internal/core"
	"mecoffload/internal/mec"
	"mecoffload/internal/workload"
)

// Errors of the algorithm table. They carry no package prefix: the
// façade and the experiment harness return them as their own.
var (
	ErrUnknownAlgorithm = errors.New("unknown algorithm")
	ErrAuditFailed      = errors.New("result failed feasibility audit")
)

// algorithms is the one table of the paper's algorithms: each name with
// its offline algorithm and its online scheduler, nil where the paper
// runs it in one mode only. The façade, mecsim's harness, arsim and the
// examples all look names up here, in this order.
var algorithms = []struct {
	name    string
	offline func(n *mec.Network, reqs []*mec.Request, rng *rand.Rand) (*core.Result, error)
	online  func() (Scheduler, error)
}{
	{"Exact", func(n *mec.Network, reqs []*mec.Request, rng *rand.Rand) (*core.Result, error) {
		return core.Exact(n, reqs, rng, core.ExactOptions{})
	}, nil},
	{"Appro", func(n *mec.Network, reqs []*mec.Request, rng *rand.Rand) (*core.Result, error) {
		return core.Appro(n, reqs, rng, core.ApproOptions{})
	}, nil},
	{"Heu", func(n *mec.Network, reqs []*mec.Request, rng *rand.Rand) (*core.Result, error) {
		return core.Heu(n, reqs, rng, core.HeuOptions{})
	}, nil},
	{"DynamicRR", nil, func() (Scheduler, error) { return NewDynamicRR(DynamicRROptions{}) }},
	{"OCORP", baseline.OCORP, func() (Scheduler, error) { return &OnlineOCORP{}, nil }},
	{"Greedy", baseline.Greedy, func() (Scheduler, error) { return &OnlineGreedy{}, nil }},
	{"HeuKKT", baseline.HeuKKT, func() (Scheduler, error) { return &OnlineHeuKKT{}, nil }},
}

// OfflineAlgorithms lists the names RunOffline accepts, in table order.
func OfflineAlgorithms() []string {
	var names []string
	for _, a := range algorithms {
		if a.offline != nil {
			names = append(names, a.name)
		}
	}
	return names
}

// OnlineAlgorithms lists the names NewScheduler accepts, in table order.
func OnlineAlgorithms() []string {
	var names []string
	for _, a := range algorithms {
		if a.online != nil {
			names = append(names, a.name)
		}
	}
	return names
}

// RunOffline runs the named offline algorithm on a fresh realization of
// reqs, drawing from rng, and checks its result with core.Audit. A name
// without an offline algorithm is ErrUnknownAlgorithm.
func RunOffline(name string, n *mec.Network, reqs []*mec.Request, rng *rand.Rand) (*core.Result, error) {
	for _, a := range algorithms {
		if a.name != name || a.offline == nil {
			continue
		}
		workload.Reset(reqs)
		res, err := a.offline(n, reqs, rng)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if err := core.Audit(n, reqs, res); err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrAuditFailed, name, err)
		}
		return res, nil
	}
	return nil, fmt.Errorf("%w: %q (offline)", ErrUnknownAlgorithm, name)
}

// NewScheduler builds a fresh online scheduler for the named algorithm. A
// name without an online scheduler is ErrUnknownAlgorithm.
func NewScheduler(name string) (Scheduler, error) {
	for _, a := range algorithms {
		if a.name == name && a.online != nil {
			return a.online()
		}
	}
	return nil, fmt.Errorf("%w: %q (online)", ErrUnknownAlgorithm, name)
}

// RunOptions configures Simulate.
type RunOptions struct {
	// Horizon is the number of slots to simulate.
	Horizon int
	// Drift, when non-nil, is installed before the first slot on a
	// network reset to nominal capacity.
	Drift *Drift
	// Audit checks the result with AuditTimeline.
	Audit bool
	// StepChecker, when non-nil, is installed with SetStepChecker: it
	// observes every slot after the slot settles.
	StepChecker StepChecker
}

// Simulate runs sched over a fresh realization of reqs, sorted by arrival
// with IDs equal to their positions, on a new engine that draws from rng:
// it appends the whole workload, steps every slot of the horizon with that
// slot's arrivals added to the queue, and returns the result and its
// per-slot rewards. Arrivals past the horizon never enter the queue. It is
// the one loop that runs a scheduler over a workload.
func Simulate(n *mec.Network, reqs []*mec.Request, sched Scheduler, rng *rand.Rand, opts RunOptions) (*core.Result, []float64, error) {
	if sched == nil {
		return nil, nil, ErrNilScheduler
	}
	if len(reqs) == 0 {
		return nil, nil, core.ErrNoRequests
	}
	if opts.Horizon <= 0 {
		return nil, nil, fmt.Errorf("%w: %d", ErrBadHorizon, opts.Horizon)
	}
	workload.Reset(reqs)
	eng, err := NewLiveEngine(n, rng, 0)
	if err != nil {
		return nil, nil, err
	}
	// The whole workload is known: size its filing columns once.
	eng.keys, eng.cut, eng.reqs = make([]Key, 0, len(reqs)), make([]int, 0, len(reqs)), make([]*mec.Request, 0, len(reqs))
	for _, r := range reqs {
		if err := eng.Append(r); err != nil {
			return nil, nil, err
		}
	}
	if opts.Drift != nil {
		n.ResetCapacityScales()
		if err := eng.SetDrift(opts.Drift); err != nil {
			return nil, nil, err
		}
	}
	eng.SetStepChecker(opts.StepChecker)

	start := time.Now()
	res := core.NewResult(sched.Name(), len(reqs))
	rewards := make([]float64, opts.Horizon)
	var pending []int
	next := 0
	for t := range rewards {
		for ; next < len(reqs) && reqs[next].ArrivalSlot <= t; next++ {
			if reqs[next].ArrivalSlot == t {
				pending = append(pending, next)
			}
		}
		var rep SlotReport
		if pending, rep, err = eng.Step(sched, res, t, pending); err != nil {
			return nil, nil, err
		}
		rewards[t] = rep.Reward
	}
	res.Runtime = time.Since(start)

	if opts.Audit {
		if err := AuditTimeline(n, reqs, res); err != nil {
			return nil, nil, fmt.Errorf("%w: %s: %v", ErrAuditFailed, res.Algorithm, err)
		}
	}
	return res, rewards, nil
}
