package sim

import (
	"errors"
	"fmt"
	"math/rand"

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
	{"OCORP", func(n *mec.Network, reqs []*mec.Request, rng *rand.Rand) (*core.Result, error) {
		return baseline.OCORP(n, reqs, rng, baseline.Options{})
	}, func() (Scheduler, error) { return &OnlineOCORP{}, nil }},
	{"Greedy", func(n *mec.Network, reqs []*mec.Request, rng *rand.Rand) (*core.Result, error) {
		return baseline.Greedy(n, reqs, rng, baseline.Options{})
	}, func() (Scheduler, error) { return &OnlineGreedy{}, nil }},
	{"HeuKKT", func(n *mec.Network, reqs []*mec.Request, rng *rand.Rand) (*core.Result, error) {
		return baseline.HeuKKT(n, reqs, rng, baseline.Options{})
	}, func() (Scheduler, error) { return &OnlineHeuKKT{}, nil }},
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
// reqs, drawing from rng, and with audit set checks its result with
// core.Audit. A name without an offline algorithm is ErrUnknownAlgorithm.
func RunOffline(name string, n *mec.Network, reqs []*mec.Request, rng *rand.Rand, audit bool) (*core.Result, error) {
	for _, a := range algorithms {
		if a.name != name || a.offline == nil {
			continue
		}
		workload.Reset(reqs)
		res, err := a.offline(n, reqs, rng)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if audit {
			if err := core.Audit(n, reqs, res); err != nil {
				return nil, fmt.Errorf("%w: %s: %v", ErrAuditFailed, name, err)
			}
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
}

// Simulate runs sched over a fresh realization of reqs on a new engine
// that draws from rng, and returns the result and its per-slot rewards.
func Simulate(n *mec.Network, reqs []*mec.Request, sched Scheduler, rng *rand.Rand, opts RunOptions) (*core.Result, []float64, error) {
	workload.Reset(reqs)
	eng, err := NewEngine(n, reqs, rng, Config{Horizon: opts.Horizon})
	if err != nil {
		return nil, nil, err
	}
	if opts.Drift != nil {
		n.ResetCapacityScales()
		if err := eng.SetDrift(opts.Drift); err != nil {
			return nil, nil, err
		}
	}
	res, err := eng.Run(sched)
	if err != nil {
		return nil, nil, err
	}
	if opts.Audit {
		if err := AuditTimeline(n, reqs, res, opts.Horizon); err != nil {
			return nil, nil, fmt.Errorf("%w: %s: %v", ErrAuditFailed, res.Algorithm, err)
		}
	}
	return res, eng.SlotRewards(), nil
}
