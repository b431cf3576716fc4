package oracle

import (
	"errors"
	"fmt"
	"reflect"

	"mecoffload/internal/core"
	"mecoffload/internal/mec"
	"mecoffload/internal/rnd"
	"mecoffload/internal/sim"
	"mecoffload/internal/workload"
)

// ErrNoCleanHits reports that a reuse diff passed decision parity
// but the trace never produced a clean component, so the cache went
// unexercised. The fuzz harness tolerates it (arbitrary inputs need not
// repeat a component); the curated tests treat it as a failure.
var ErrNoCleanHits = errors.New("oracle: incremental run had no clean hits")

// ReferenceDynamicRR builds DynamicRR as the differentials' reference:
// the same scheduler with its decision cache taken out, so every slot
// re-solves every component's LP from the component's previous basis.
// This is the only place the full re-solve is reachable from; no daemon,
// flag or option selects it.
func ReferenceDynamicRR(opts sim.DynamicRROptions) (*sim.DynamicRR, error) {
	sched, err := sim.NewDynamicRR(opts)
	if err != nil {
		return nil, err
	}
	sched.SetIncCache(nil)
	return sched, nil
}

// incRun executes one DynamicRR simulation of cloned requests — the
// production scheduler, or the reference when reference is set — and
// returns the result, the per-slot reward vector, and the scheduler (for
// its cache counters).
func incRun(n *mec.Network, reqs []*mec.Request, seed int64, horizon int, dopts sim.DynamicRROptions, reference bool) (*core.Result, []float64, *sim.DynamicRR, error) {
	mk := sim.NewDynamicRR
	if reference {
		mk = ReferenceDynamicRR
	}
	sched, err := mk(dopts)
	if err != nil {
		return nil, nil, nil, err
	}
	res, rewards, err := sim.Simulate(n, workload.Clone(reqs), sched, rnd.New(seed, "engine"),
		sim.RunOptions{Horizon: horizon, StepChecker: EngineChecker()})
	if err != nil {
		return nil, nil, nil, err
	}
	return res, rewards, sched, nil
}

// diffRuns compares two runs decision for decision.
func diffRuns(aName, bName string, a, b *core.Result, aRew, bRew []float64) error {
	if a.TotalReward != b.TotalReward {
		return fmt.Errorf("oracle: %s total reward %v, %s %v", aName, a.TotalReward, bName, b.TotalReward)
	}
	if !reflect.DeepEqual(aRew, bRew) {
		return fmt.Errorf("oracle: slot reward vectors diverge between %s and %s", aName, bName)
	}
	for j := range a.Decisions {
		if !reflect.DeepEqual(a.Decisions[j], b.Decisions[j]) {
			return fmt.Errorf("oracle: decision %d diverges between %s and %s: %+v vs %+v",
				j, aName, bName, a.Decisions[j], b.Decisions[j])
		}
	}
	return nil
}

// DiffIncrementalFull is decision reuse's correctness oracle: it runs
// DynamicRR over the same workload twice — once as the reference,
// re-solving every component every slot, once as shipped, replaying clean
// components' cached decisions — and requires the two runs to agree
// decision for decision: identical admission tables, identical per-slot
// reward vectors, identical totals. The engine's invariant checker stays
// installed in both runs. It also demands the reuse run actually
// exercised the cache (CleanHits > 0): a trace where every component is
// always dirty proves nothing.
//
// Both run horizon slots; dopts carries the scheduler configuration they
// share (rounding denominator, bandit shape).
func DiffIncrementalFull(n *mec.Network, reqs []*mec.Request, seed int64, horizon int, dopts sim.DynamicRROptions) error {
	full, fullRew, _, err := incRun(n, reqs, seed, horizon, dopts, true)
	if err != nil {
		return fmt.Errorf("oracle: full re-solve run: %w", err)
	}
	inc, incRew, sched, err := incRun(n, reqs, seed, horizon, dopts, false)
	if err != nil {
		return fmt.Errorf("oracle: reuse run: %w", err)
	}
	if err := diffRuns("full", "reuse", full, inc, fullRew, incRew); err != nil {
		return err
	}
	if st := sched.IncStats(); st.CleanHits == 0 {
		return fmt.Errorf("%w (%d dirty solves): the trace does not exercise the cache", ErrNoCleanHits, st.DirtySolves)
	}
	return nil
}
