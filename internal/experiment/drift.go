package experiment

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"mecoffload/internal/bandit"
	"mecoffload/internal/rnd"
	"mecoffload/internal/scenario"
	"mecoffload/internal/sim"
	"mecoffload/internal/stats"
	"mecoffload/internal/workload"
)

// Drift experiment defaults: the scenario pack's horizon is set by each
// document; the learner discretization matches the regret experiment.
const driftKappa = 8

// DriftPolicies lists the bandit specs the drift experiment compares:
// the paper's stationary learners against the drift-aware pack. Specs
// parse via bandit.Parse.
func DriftPolicies() []string {
	return []string{"se", "ucb1", "sw-ucb:100", "d-ucb:0.99", "exp3s", "restart:se"}
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

// Drift runs DynamicRR with each policy spec over every builtin drift
// scenario (diurnal load, flash crowds, mobility handover, correlated
// outages, plus the stationary i.i.d. control), measuring cumulative
// reward and regret against the best fixed threshold in hindsight on the
// same materialized instance. This is the dynamic-environment complement
// of the Theorem 3 validation: where Regret checks sub-linear growth
// under stationarity, Drift checks that drift-aware policies keep regret
// bounded when the environment shifts under the learner.
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
			pol, err := bandit.Parse(spec, driftKappa, rnd.Derive(runSeedRep, "drift-policy:"+spec))
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

// DriftTrace maps a drift scenario document onto a k-armed
// piecewise-stationary bandit environment: every scripted transition
// (curve breakpoint, burst edge, handover, outage boundary) becomes a
// change point, with the scenario's slots rescaled to the trace
// horizon. The environment is the asymmetric two-leader instance that
// separates forgetting from stationary optimism: arm 0 swings between
// excellent and terrible across segments while arm 1 pays a steady
// just-below-peak reward, so arm 0's long-run average converges to the
// middle — far from either of its true per-segment means. A stationary
// learner keeps trusting that collapsed average (its confidence radius
// has shrunk with the sample count) and sits on the wrong leader for
// bulk of every swing, while windowed, discounted, or restarting
// learners re-estimate from recent samples and recover at a cost
// independent of history length. The statistical regression suite runs
// the drift-aware policies on these traces — the scenario pack's drift
// structure at bandit level, deterministic and fast — and pins regret
// orderings with fixed seeds.
type DriftTrace struct {
	K       int
	Horizon int
	points  []int // ascending change points in (0, Horizon)
}

// NewDriftTrace derives the trace from a validated scenario document.
func NewDriftTrace(doc *scenario.DriftDoc, k, horizon int) (*DriftTrace, error) {
	if err := doc.Validate(); err != nil {
		return nil, err
	}
	if k < 2 || horizon < 1 {
		return nil, fmt.Errorf("experiment: drift trace needs k >= 2 and a positive horizon (got %d, %d)", k, horizon)
	}
	slots := map[int]bool{}
	add := func(s int) {
		if s > 0 && s < doc.Horizon {
			slots[s*horizon/doc.Horizon] = true
		}
	}
	for _, p := range doc.RateCurve {
		add(p.Slot)
	}
	for _, p := range doc.RewardCurve {
		add(p.Slot)
	}
	for _, b := range doc.Bursts {
		add(b.Start)
		add(b.End)
	}
	for _, h := range doc.Handovers {
		add(h.Slot)
	}
	for _, o := range doc.Outages {
		add(o.Start)
		add(o.End)
	}
	tr := &DriftTrace{K: k, Horizon: horizon}
	for s := range slots {
		if s > 0 && s < horizon {
			tr.points = append(tr.points, s)
		}
	}
	sort.Ints(tr.points)
	return tr, nil
}

// ChangePoints returns the trace's change points (copy).
func (tr *DriftTrace) ChangePoints() []int {
	return append([]int(nil), tr.points...)
}

// segment returns how many change points precede or equal slot t.
func (tr *DriftTrace) segment(t int) int {
	n := 0
	for _, p := range tr.points {
		if p > t {
			break
		}
		n++
	}
	return n
}

// BestArm returns the optimal arm at slot t: the swinging arm 0 in even
// segments, the steady arm 1 in odd segments.
func (tr *DriftTrace) BestArm(t int) int { return tr.segment(t) % 2 }

// Mean returns the expected reward of an arm at slot t: arm 0 swings
// between 0.95 (even segments) and 0.05 (odd segments), arm 1
// counter-swings between 0.35 and 0.75, and any remaining arms trail
// with a slight spread so no two are tied. Both leaders moving at every
// change point keeps the shift visible on whichever arm a learner is
// currently playing — a restart detector watching only the played arm
// still fires — while the differing amplitudes and midpoints keep the
// long-run averages (0.50 vs 0.55) close enough that a stationary
// learner cannot rank the leaders from history.
func (tr *DriftTrace) Mean(arm, t int) float64 {
	even := tr.segment(t)%2 == 0
	switch arm {
	case 0:
		if even {
			return 0.95
		}
		return 0.05
	case 1:
		if even {
			return 0.35
		}
		return 0.75
	default:
		return 0.2 + 0.04*float64(arm)/float64(tr.K)
	}
}
