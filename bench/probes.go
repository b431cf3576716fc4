package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"mecoffload/internal/bandit"
	"mecoffload/internal/core"
	"mecoffload/internal/lp"
	"mecoffload/internal/mec"
	"mecoffload/internal/serve"
)

// The probes time the layers below the scheduler — core, lp, bandit, ckpt
// — at their public functions, on inputs captured from the traced run so
// they keep the workload's shape.

// probeEvery spaces the captured Schedule inputs: timed slots i with
// i%probeEvery in {0, 1} are captured, so every capture has its
// predecessor slot for the warm-started LP solve.
const probeEvery = 16

// layerProbes accumulates the probes' samples over one traced run.
type layerProbes struct {
	net  *mec.Network
	rng  *rand.Rand
	warm *core.WarmCache

	coreUS             []float64
	prev               *schedInput
	warmUS, coldUS     []float64
	warmPiv, coldPiv   float64
	rows, cols, solves float64
}

func newLayerProbes(net *mec.Network, seed int64) *layerProbes {
	return &layerProbes{net: net, rng: rand.New(rand.NewSource(seed)), warm: core.NewWarmCache()}
}

// observe runs the core probe on one captured input and the lp probe on
// it and its predecessor slot's.
func (p *layerProbes) observe(in *schedInput) error {
	if err := p.scheduleBatch(in); err != nil {
		return err
	}
	if p.prev != nil && p.prev.t == in.t-1 {
		if err := p.solvePair(p.prev, in); err != nil {
			return err
		}
	}
	p.prev = in
	return nil
}

// scheduleBatch times core.ScheduleBatch over a captured R_t on scratch
// copies, with the options DynamicRR passes.
func (p *layerProbes) scheduleBatch(in *schedInput) error {
	n := len(in.active)
	reqs := make([]*mec.Request, n)
	active := make([]int, n)
	res := &core.Result{Decisions: make([]core.Decision, n)}
	for k, j := range in.active {
		reqs[k] = in.reqs[j].CloneShallow()
		reqs[k].ID = k
		active[k] = k
		res.Decisions[k] = core.Decision{RequestID: k, Station: -1}
	}
	opts := core.BatchOptions{
		Active:      active,
		Used:        append([]float64(nil), in.used...),
		WaitSlots:   func(k int) int { return in.t - reqs[k].ArrivalSlot },
		ShareCapMBs: func(i int) float64 { return p.net.Capacity(i) / float64(n) / p.net.CUnit() },
		Distribute:  true,
		Warm:        p.warm,
	}
	t0 := time.Now()
	_, err := core.ScheduleBatch(p.net, reqs, res, p.rng, opts)
	p.coreUS = append(p.coreUS, us(time.Since(t0)))
	return err
}

// solvePair solves slot t's LP-PT cold and warm-started from slot t-1's
// optimal basis — the production configuration.
func (p *layerProbes) solvePair(prev, cur *schedInput) error {
	before, prob := buildLPPT(p.net, prev), buildLPPT(p.net, cur)
	if before.NumVars() == 0 || prob.NumVars() == 0 {
		return nil // nothing placeable in one of the two slots
	}
	seed, err := before.Solve()
	if err != nil {
		return err
	}
	t0 := time.Now()
	cold, err := prob.Solve()
	t1 := time.Now()
	if err != nil {
		return err
	}
	warm, err := prob.SolveWithOptions(lp.SolveOptions{WarmStart: seed.Basis})
	t2 := time.Now()
	if err != nil {
		return err
	}
	if cold.Status != lp.StatusOptimal || warm.Status != lp.StatusOptimal ||
		math.Abs(cold.Objective-warm.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
		return fmt.Errorf("lp probe slot %d: cold %v %g vs warm %v %g", cur.t, cold.Status, cold.Objective, warm.Status, warm.Objective)
	}
	p.coldUS = append(p.coldUS, us(t1.Sub(t0)))
	p.warmUS = append(p.warmUS, us(t2.Sub(t1)))
	p.coldPiv += float64(cold.Iterations)
	p.warmPiv += float64(warm.Iterations)
	p.rows += float64(prob.NumConstraints())
	p.cols += float64(prob.NumVars())
	p.solves++
	return nil
}

// buildLPPT builds the per-slot LP-PT relaxation (constraints (9)-(12)
// truncated by (23)) over a captured pending set and occupancy, the model
// bench_test.go's buildBenchLPPT builds: variables y[j,i,l] with
// reward-mass objectives, one assign row per request, one capacity row
// per (station, slot index).
func buildLPPT(net *mec.Network, in *schedInput) *lp.Problem {
	type svar struct {
		v    lp.Var
		i, l int
	}
	slotMHz := net.SlotMHz()
	prob := lp.NewProblem(lp.Maximize)
	byReq := make(map[int][]svar, len(in.active))
	for _, j := range in.active {
		r := in.reqs[j]
		for i := 0; i < net.NumStations(); i++ {
			if !r.DelayFeasible(net, i, in.t-r.ArrivalSlot, mec.DefaultSlotLengthMS) {
				continue
			}
			free := net.Capacity(i) - in.used[i]
			for l := 1; l <= int(free/slotMHz); l++ {
				mass := r.Dist.RewardMassBelow((free - float64(l)*slotMHz) / net.CUnit())
				if mass <= 0 {
					continue
				}
				v := prob.AddVariable(fmt.Sprintf("y[%d,%d,%d]", j, i, l), mass)
				byReq[j] = append(byReq[j], svar{v: v, i: i, l: l})
			}
		}
	}
	// The row builders only fail on a bad operator or a non-finite
	// coefficient, neither of which this model can produce.
	for _, j := range in.active {
		terms := make([]lp.Term, 0, len(byReq[j]))
		for _, sv := range byReq[j] {
			terms = append(terms, lp.Term{Var: sv.v, Coef: 1})
		}
		if len(terms) > 0 {
			_, _ = prob.AddConstraint(fmt.Sprintf("assign[%d]", j), lp.LE, 1, terms...)
		}
	}
	for i := 0; i < net.NumStations(); i++ {
		free := net.Capacity(i) - in.used[i]
		share := net.Capacity(i) / float64(len(in.active)) / net.CUnit()
		for l := 1; l <= int(free/slotMHz); l++ {
			slotCap := float64(l) * slotMHz / net.CUnit()
			var terms []lp.Term
			for _, j := range in.active {
				for _, sv := range byReq[j] {
					if sv.i != i || sv.l > l {
						continue
					}
					if c := in.reqs[j].Dist.ExpectedTruncatedRate(math.Min(slotCap, share)); c > 0 {
						terms = append(terms, lp.Term{Var: sv.v, Coef: c})
					}
				}
			}
			if len(terms) > 0 {
				_, _ = prob.AddConstraint(fmt.Sprintf("cap[%d,%d]", i, l), lp.LE, 2*slotCap, terms...)
			}
		}
	}
	return prob
}

// banditSelectUpdateNS times one Lipschitz.SelectValue + Update over the
// scheduler's default learner (successive elimination, 16 arms over
// [200, 1200] MHz).
func banditSelectUpdateNS(seed int64) (float64, error) {
	pol, err := bandit.NewSuccessiveElimination(16)
	if err != nil {
		return 0, err
	}
	lip, err := bandit.NewLipschitz(pol, 200, 1200)
	if err != nil {
		return 0, err
	}
	const rounds = 200000
	rng := rand.New(rand.NewSource(seed))
	rewards := make([]float64, 1024)
	for i := range rewards {
		rewards[i] = 4000 * rng.Float64()
	}
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		arm, _ := lip.SelectValue()
		lip.Update(arm, rewards[i%len(rewards)])
	}
	return float64(time.Since(t0)) / rounds, nil
}

// checkpointWrite times serve.WriteCheckpoint of the engine rung's final
// snapshot into the scratch directory.
func checkpointWrite(eng *serve.Engine, scratch string) (msP50, bytes float64, err error) {
	ck, err := eng.Snapshot()
	if err != nil {
		return 0, 0, err
	}
	dir, err := os.MkdirTemp(scratch, "ckpt-")
	if err != nil {
		return 0, 0, err
	}
	path := filepath.Join(dir, "engine.json")
	var samples []float64
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		if err := serve.WriteCheckpoint(path, ck); err != nil {
			return 0, 0, err
		}
		samples = append(samples, ms(time.Since(t0)))
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, 0, err
	}
	return median(samples), float64(fi.Size()), nil
}
