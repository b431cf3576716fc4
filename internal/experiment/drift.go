package experiment

import (
	"fmt"
	"io"
	"math/rand"

	"mecoffload/internal/bandit"
	"mecoffload/internal/scenario"
	"mecoffload/internal/sim"
	"mecoffload/internal/stats"
	"mecoffload/internal/workload"
)

// Drift experiment defaults: the scenario pack's horizon is set by each
// document; the learner discretization matches the regret experiment.
const driftKappa = 8

// DriftPolicies lists the learners the drift experiment runs against the
// best fixed threshold in hindsight: the paper's successive elimination
// ("se"), the one arm policy DynamicRR ships.
func DriftPolicies() []string {
	return []string{"se"}
}

// DriftScenarioCurves holds one scenario's per-policy reward and regret
// curves, aggregated over repetitions at fixed checkpoints.
type DriftScenarioCurves struct {
	// Name is the builtin scenario id.
	Name string
	// Checkpoints are the slots at which the curves are sampled.
	Checkpoints []int
	// Policies fixes column order (same as DriftPolicies).
	Policies []string
	// Reward[p][i] aggregates the cumulative realized reward of policy p
	// at Checkpoints[i].
	Reward map[string][]stats.Summary
	// Regret[p][i] aggregates cumulative regret against the best fixed
	// threshold in hindsight at Checkpoints[i].
	Regret map[string][]stats.Summary
}

// DriftResult is the full non-stationary evaluation: one curve set per
// scenario in the builtin pack.
type DriftResult struct {
	Kappa     int
	Scenarios []*DriftScenarioCurves
}

// Drift runs DynamicRR's learner over every builtin drift scenario
// (diurnal load, flash crowds, mobility handover, correlated outages,
// plus the stationary i.i.d. control), measuring cumulative reward and
// regret against the best fixed threshold in hindsight on the same
// materialized instance. This is the dynamic-environment complement of
// the Theorem 3 validation: where Regret checks sub-linear growth under
// stationarity, Drift measures how much the learner gives up when the
// environment shifts under it.
func Drift(opts Options) (*DriftResult, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	out := &DriftResult{Kappa: driftKappa}
	for si, name := range scenario.BuiltinNames() {
		curves, err := driftScenario(opts, si, name)
		if err != nil {
			return nil, fmt.Errorf("experiment: drift scenario %s: %w", name, err)
		}
		out.Scenarios = append(out.Scenarios, curves)
	}
	return out, nil
}

func driftScenario(opts Options, si int, name string) (*DriftScenarioCurves, error) {
	doc, err := scenario.Builtin(name)
	if err != nil {
		return nil, err
	}
	checkpoints := driftCheckpoints(doc.Horizon)
	curves := &DriftScenarioCurves{
		Name:        name,
		Checkpoints: checkpoints,
		Policies:    DriftPolicies(),
		Reward:      map[string][]stats.Summary{},
		Regret:      map[string][]stats.Summary{},
	}
	for _, p := range curves.Policies {
		curves.Reward[p] = make([]stats.Summary, len(checkpoints))
		curves.Regret[p] = make([]stats.Summary, len(checkpoints))
	}

	for rep := 0; rep < opts.Repetitions; rep++ {
		doc, err := scenario.Builtin(name)
		if err != nil {
			return nil, err
		}
		doc.Seed = instSeed(opts.Seed, 30, si, rep)
		net, reqs, drift, err := scenario.Materialize(doc)
		if err != nil {
			return nil, err
		}
		inst := &instance{net: net, reqs: reqs}
		runSeedRep := runSeed(opts.Seed, 30, si, rep, 0)

		// Best fixed threshold in hindsight on this instance.
		best := make([]float64, doc.Horizon)
		for arm := 0; arm < driftKappa; arm++ {
			fixed, err := bandit.NewFixed(driftKappa, arm)
			if err != nil {
				return nil, err
			}
			cum, err := driftRun(inst, drift, fixed, runSeedRep, doc.Horizon)
			if err != nil {
				return nil, err
			}
			for t := range best {
				if cum[t] > best[t] {
					best[t] = cum[t]
				}
			}
		}

		for _, spec := range curves.Policies {
			// DriftPolicies names one learner, successive elimination.
			pol, err := bandit.NewSuccessiveElimination(driftKappa)
			if err != nil {
				return nil, err
			}
			cum, err := driftRun(inst, drift, pol, runSeedRep, doc.Horizon)
			if err != nil {
				return nil, err
			}
			for i, cp := range checkpoints {
				r := best[cp-1] - cum[cp-1]
				if r < 0 {
					r = 0
				}
				curves.Reward[spec][i].Add(cum[cp-1])
				curves.Regret[spec][i].Add(r)
			}
		}
	}
	return curves, nil
}

// driftRun simulates DynamicRR with one arm policy under the scenario's
// drift script and returns the cumulative reward series.
func driftRun(inst *instance, drift *sim.Drift, pol bandit.Policy, seed int64, horizon int) ([]float64, error) {
	workload.Reset(inst.reqs)
	inst.net.ResetCapacityScales()
	sched, err := sim.NewDynamicRR(sim.DynamicRROptions{Kappa: driftKappa, Policy: pol})
	if err != nil {
		return nil, err
	}
	eng, err := sim.NewEngine(inst.net, inst.reqs, rand.New(rand.NewSource(seed*13+1)), sim.Config{Horizon: horizon})
	if err != nil {
		return nil, err
	}
	if err := eng.SetDrift(drift); err != nil {
		return nil, err
	}
	if _, err := eng.Run(sched); err != nil {
		return nil, err
	}
	slot := eng.SlotRewards()
	cum := make([]float64, len(slot))
	acc := 0.0
	for t, r := range slot {
		acc += r
		cum[t] = acc
	}
	return cum, nil
}

func driftCheckpoints(horizon int) []int {
	cps := make([]int, 0, 8)
	for i := 1; i <= 8; i++ {
		cps = append(cps, horizon*i/8)
	}
	return cps
}

// WriteText renders the drift evaluation as aligned text blocks, one per
// scenario: cumulative regret (vs best fixed threshold in hindsight) per
// policy at each checkpoint.
func (r *DriftResult) WriteText(w io.Writer) error {
	for _, sc := range r.Scenarios {
		if _, err := fmt.Fprintf(w, "Drift scenario %q — cumulative regret vs best fixed threshold (kappa=%d)\n",
			sc.Name, r.Kappa); err != nil {
			return err
		}
		header := fmt.Sprintf("%8s", "slot")
		for _, p := range sc.Policies {
			header += fmt.Sprintf("  %18s", p)
		}
		if _, err := fmt.Fprintln(w, header); err != nil {
			return err
		}
		for i, cp := range sc.Checkpoints {
			line := fmt.Sprintf("%8d", cp)
			for _, p := range sc.Policies {
				s := sc.Regret[p][i]
				line += fmt.Sprintf("  %10.1f ± %5.1f", s.Mean(), s.CI95())
			}
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV emits every (scenario, policy, checkpoint) sample of both
// curves.
func (r *DriftResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "experiment,scenario,policy,slot,metric,mean,ci95,n"); err != nil {
		return err
	}
	for _, sc := range r.Scenarios {
		for _, p := range sc.Policies {
			for i, cp := range sc.Checkpoints {
				rw, rg := sc.Reward[p][i], sc.Regret[p][i]
				if _, err := fmt.Fprintf(w, "drift,%s,%s,%d,cumReward,%.4f,%.4f,%d\n",
					sc.Name, p, cp, rw.Mean(), rw.CI95(), rw.N()); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "drift,%s,%s,%d,regret,%.4f,%.4f,%d\n",
					sc.Name, p, cp, rg.Mean(), rg.CI95(), rg.N()); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
