package experiment

import (
	"fmt"
	"io"

	"mecoffload/internal/scenario"
	"mecoffload/internal/stats"
)

// Drift experiment defaults: the scenario pack's horizon is set by each
// document; the learner discretization matches the regret experiment.
const driftKappa = 8

// driftPolicy labels the drift experiment's one learner, the paper's
// successive elimination, in the text column and the CSV policy field.
const driftPolicy = "se"

// DriftScenarioCurves holds one scenario's reward and regret curves of
// DynamicRR's successive-elimination learner, aggregated over repetitions
// at fixed checkpoints.
type DriftScenarioCurves struct {
	// Name is the builtin scenario id.
	Name string
	// Checkpoints are the slots at which the curves are sampled.
	Checkpoints []int
	// Reward[i] aggregates the learner's cumulative realized reward at
	// Checkpoints[i].
	Reward []stats.Summary
	// Regret[i] aggregates cumulative regret against the best fixed
	// threshold in hindsight at Checkpoints[i].
	Regret []stats.Summary
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
		Reward:      make([]stats.Summary, len(checkpoints)),
		Regret:      make([]stats.Summary, len(checkpoints)),
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

		best, err := bestFixedCumulative(inst, driftKappa, runSeedRep*13+1, doc.Horizon, drift)
		if err != nil {
			return nil, err
		}
		slot, _, err := learnerRun(inst, driftKappa, nil, runSeedRep*13+1, doc.Horizon, drift)
		if err != nil {
			return nil, err
		}
		cum := cumulative(slot)
		for i, cp := range checkpoints {
			r := best[cp-1] - cum[cp-1]
			if r < 0 {
				r = 0
			}
			curves.Reward[i].Add(cum[cp-1])
			curves.Regret[i].Add(r)
		}
	}
	return curves, nil
}

func driftCheckpoints(horizon int) []int {
	cps := make([]int, 0, 8)
	for i := 1; i <= 8; i++ {
		cps = append(cps, horizon*i/8)
	}
	return cps
}

// WriteText renders the drift evaluation as aligned text blocks, one per
// scenario: the learner's cumulative regret (vs best fixed threshold in
// hindsight) at each checkpoint.
func (r *DriftResult) WriteText(w io.Writer) error {
	for _, sc := range r.Scenarios {
		if _, err := fmt.Fprintf(w, "Drift scenario %q — cumulative regret vs best fixed threshold (kappa=%d)\n",
			sc.Name, r.Kappa); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%8s  %18s\n", "slot", driftPolicy); err != nil {
			return err
		}
		for i, cp := range sc.Checkpoints {
			s := sc.Regret[i]
			if _, err := fmt.Fprintf(w, "%8d  %10.1f ± %5.1f\n", cp, s.Mean(), s.CI95()); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV emits every (scenario, checkpoint) sample of both curves.
func (r *DriftResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "experiment,scenario,policy,slot,metric,mean,ci95,n"); err != nil {
		return err
	}
	for _, sc := range r.Scenarios {
		for i, cp := range sc.Checkpoints {
			rw, rg := sc.Reward[i], sc.Regret[i]
			if _, err := fmt.Fprintf(w, "drift,%s,%s,%d,cumReward,%.4f,%.4f,%d\n",
				sc.Name, driftPolicy, cp, rw.Mean(), rw.CI95(), rw.N()); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "drift,%s,%s,%d,regret,%.4f,%.4f,%d\n",
				sc.Name, driftPolicy, cp, rg.Mean(), rg.CI95(), rg.N()); err != nil {
				return err
			}
		}
	}
	return nil
}
