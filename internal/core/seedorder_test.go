package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mecoffload/internal/lp"
	"mecoffload/internal/mec"
	"mecoffload/internal/workload"
)

// referenceSolveDecomposed is the offline half of solveDecomposed as it
// was phased while components were solved on a worker pool: resolve every
// component's seed against the cache as the pass found it, then solve them
// all (storing bases), then merge. It builds every LP in fresh storage.
func referenceSolveDecomposed(n *mec.Network, reqs []*mec.Request, opts lpOptions, cfg solveCfg, sc *slotScratch, m *mergedModel) (keys []int, err error) {
	if opts.slotLengthMS == 0 {
		opts.slotLengthMS = mec.DefaultSlotLengthMS
	}
	m.reset(len(reqs), opts.active)
	opts.reach = opts.reachOf(n, reqs, opts.active, &sc.reach)
	comps := splitComponents(n, reqs, opts, sc, false)
	seeds := make([]*lp.Basis, len(comps))
	for k := range comps {
		keys = append(keys, comps[k].key)
		seeds[k] = cfg.warm.get(cfg.pass, comps[k].key, !opts.positional)
	}
	type solved struct {
		vars []slotVar
		y    []float64
		obj  float64
	}
	results := make([]solved, len(comps))
	for k, comp := range comps {
		copts := opts
		copts.active, copts.stations, copts.byReq = comp.reqs, comp.stations, m.byReq
		model, err := buildLP(n, reqs, copts)
		if err != nil {
			return nil, err
		}
		y, obj, basis, err := model.solveWarm(seeds[k], nil)
		if err != nil {
			return nil, err
		}
		cfg.warm.put(cfg.pass, comp.key, basis)
		results[k] = solved{vars: model.vars, y: y, obj: obj}
	}
	for k, r := range results {
		offset := len(m.vars)
		m.vars = append(m.vars, r.vars...)
		m.y = append(m.y, r.y...)
		m.obj += r.obj
		if offset > 0 {
			for _, j := range comps[k].reqs {
				for t := range m.byReq[j] {
					m.byReq[j][t] += offset
				}
			}
		}
	}
	return keys, nil
}

// referenceAppro is runRounding's loop for Appro over
// referenceSolveDecomposed. It also returns each pass's component keys.
func referenceAppro(t *testing.T, n *mec.Network, reqs []*mec.Request, rng *rand.Rand, opts ApproOptions) (*Result, [][]int) {
	t.Helper()
	opts.fill()
	res := &Result{Algorithm: "Appro", Decisions: make([]Decision, len(reqs))}
	for j := range res.Decisions {
		res.Decisions[j] = Decision{RequestID: j, Station: -1}
	}
	used := make([]float64, n.NumStations())
	sc := new(slotScratch)
	undecided := make([]int, len(reqs))
	for j := range undecided {
		undecided[j] = j
	}
	var passKeys [][]int
	slotMHz := n.SlotMHz()
	for pass := 0; pass < maxAutoPasses && len(undecided) > 0; pass++ {
		if pass > 0 {
			if half := slotMHz / 2; half >= n.SlotMHz()/8 {
				slotMHz = half
			}
		}
		keys, err := referenceSolveDecomposed(n, reqs, lpOptions{
			active:       undecided,
			capOf:        func(i int) float64 { return n.Capacity(i) - used[i] },
			slotMHz:      slotMHz,
			slotLengthMS: opts.SlotLengthMS,
			names:        opts.Warm.nameTable(),
		}, solveCfg{warm: opts.Warm, pass: pass}, sc, &sc.merged)
		if err != nil {
			t.Fatal(err)
		}
		passKeys = append(passKeys, keys)
		if pass == 0 {
			res.ExpectedLPBound = sc.merged.obj
		}
		if len(sc.merged.y) == 0 {
			break
		}
		sc.pre = roundAssignments(&sc.merged, reqs, rng, opts.RoundingDenominator, sc.pre[:0])
		if admitSlotBySlot(n, reqs, sc.pre, rng, opts.SlotLengthMS, slotMHz, res, admissionHooks{}, used, nil, sc) == 0 {
			break
		}
		next := undecided[:0]
		for _, j := range undecided {
			if !res.Decisions[j].Admitted {
				next = append(next, j)
			}
		}
		undecided = next
	}
	Evaluate(n, reqs, res, rng)
	return res, passKeys
}

// TestApproSeedsResolveBeforeThePassStoresAny pins the one ordering rule
// solveDecomposed's sequential loop inherited: all of a pass's warm.get
// calls precede its first warm.put. The offline passes fall back to the
// nearest shard's basis when a component's own key is absent, and keys
// drift — a component is labeled by its smallest station, which saturates
// out of the candidate graph between passes and repetitions — so a lookup
// made after an earlier component of the same pass stored its basis would
// find that one and start the simplex somewhere else. Appro over a shared
// cache, three repetitions on islands that fill up, must agree bit for
// bit with the seed-everything-then-solve order.
func TestApproSeedsResolveBeforeThePassStoresAny(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := diffNetwork(t, rng, 5, 3)
	reqs, err := workload.Generate(workload.Config{NumRequests: 90, NumStations: net.NumStations()}, rng)
	if err != nil {
		t.Fatal(err)
	}
	got, want := NewWarmCache(), NewWarmCache()
	drifted := false
	for rep := 0; rep < 3; rep++ {
		workload.Reset(reqs)
		ref, passKeys := referenceAppro(t, net, reqs, rand.New(rand.NewSource(int64(100+rep))), ApproOptions{Warm: want})
		for p := 1; p < len(passKeys); p++ {
			drifted = drifted || (len(passKeys[p]) > 1 && !reflect.DeepEqual(passKeys[p], passKeys[p-1]))
		}
		workload.Reset(reqs)
		res, err := Appro(net, reqs, rand.New(rand.NewSource(int64(100+rep))), ApproOptions{Warm: got})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res.ExpectedLPBound) != math.Float64bits(ref.ExpectedLPBound) {
			t.Fatalf("rep %d: LP bound %v, reference order %v", rep, res.ExpectedLPBound, ref.ExpectedLPBound)
		}
		if !reflect.DeepEqual(res.Decisions, ref.Decisions) || res.TotalReward != ref.TotalReward {
			t.Fatalf("rep %d: decisions diverge from the reference order (reward %v vs %v)", rep, res.TotalReward, ref.TotalReward)
		}
		gh, gm := got.Stats()
		wh, wm := want.Stats()
		if gh != wh || gm != wm {
			t.Fatalf("rep %d: %d hits %d misses, reference order %d and %d", rep, gh, gm, wh, wm)
		}
	}
	if !drifted {
		t.Fatal("component keys never drifted between passes: the nearest-shard fallback went unexercised")
	}
}
