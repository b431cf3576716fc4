package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mecoffload/internal/dist"
	"mecoffload/internal/graph"
	"mecoffload/internal/lp"
	"mecoffload/internal/mec"
	"mecoffload/internal/topology"
)

// refModel is a reference build: the LP as an lp.Problem, built through
// AddConstraint, with the builder's variable bookkeeping (variable idx is
// column idx).
type refModel struct {
	prob  *lp.Problem
	vars  []slotVar
	byReq [][]int
}

// solve solves the reference LP and returns y aligned with vars and the
// optimum, as lpModel.solve does.
func (m *refModel) solve() ([]float64, float64, error) {
	sol, err := m.prob.Solve()
	if err != nil {
		return nil, 0, err
	}
	if sol.Status != lp.StatusOptimal {
		return nil, 0, fmt.Errorf("%w: %v", ErrLPFailed, sol.Status)
	}
	return sol.X, sol.Objective, nil
}

// referenceBuildLP is buildLP as it stood before the builder took its
// storage from a scratch, bucketed variables by station and wrote the
// simplex's standard form: a fresh lp.Problem, a term slice per row, and
// a scan of every variable for every (station, slot) row. It is kept,
// body unchanged but for its names (none, as the builder's), the
// per-station grid and the dropped cap rows, as the reference the
// in-place builder must reproduce row for row and bit for bit. With
// prune false it emits every cap row that has a term: the unpruned LP the
// exactness test compares against.
func referenceBuildLP(n *mec.Network, reqs []*mec.Request, opts lpOptions, prune bool) (*refModel, error) {
	if n == nil {
		return nil, ErrNilNetwork
	}
	if len(reqs) == 0 {
		return nil, ErrNoRequests
	}
	if opts.slotLengthMS == 0 {
		opts.slotLengthMS = mec.DefaultSlotLengthMS
	}
	active := opts.active
	if active == nil {
		active = make([]int, len(reqs))
		for j := range active {
			active[j] = j
		}
	}
	capOf := opts.capOf
	if capOf == nil {
		capOf = n.Capacity
	}
	if opts.slotMHz <= 0 {
		opts.slotMHz = n.SlotMHz()
	}
	stations := opts.stations
	if stations == nil {
		stations = make([]int, n.NumStations())
		for i := range stations {
			stations[i] = i
		}
	}

	prob := lp.NewProblem(lp.Maximize)
	byReq := opts.byReq
	if byReq == nil {
		byReq = make([][]int, len(reqs))
	}
	m := &refModel{prob: prob, byReq: byReq}

	for _, j := range active {
		r := reqs[j]
		wait := 0
		if opts.waitSlots != nil {
			wait = opts.waitSlots(j)
		}
		for _, i := range stations {
			// Constraint (11): drop stations that cannot meet the
			// deadline even with the current waiting time.
			if !r.DelayFeasible(n, i, wait, opts.slotLengthMS) {
				continue
			}
			capI, slotMHz := capOf(i), opts.slotOf(i)
			L := int(capI / slotMHz)
			for l := 1; l <= L; l++ {
				// Eq. (8): reward mass of rates that fit above slot l.
				maxRate := (capI - float64(l)*slotMHz) / n.CUnit()
				er := r.Dist.RewardMassBelow(maxRate)
				if er <= 0 {
					continue
				}
				prob.AddVariable("", er)
				m.byReq[j] = append(m.byReq[j], len(m.vars))
				m.vars = append(m.vars, slotVar{req: j, station: i, slot: l, er: er})
			}
		}
	}
	if prob.NumVars() == 0 {
		// No request can be feasibly served anywhere; the caller treats
		// this as an all-reject solution rather than an error.
		return m, nil
	}

	// Constraint (9): each request starts in at most one slot.
	for _, j := range active {
		if len(m.byReq[j]) == 0 {
			continue
		}
		terms := make([]lp.Term, 0, len(m.byReq[j]))
		for _, idx := range m.byReq[j] {
			terms = append(terms, lp.Term{Var: lp.Var(idx), Coef: 1})
		}
		if _, err := prob.AddConstraint("", lp.LE, 1, terms...); err != nil {
			return nil, err
		}
	}

	// Constraint (10) per (station, slot): truncated expected occupancy of
	// all variables starting at or below slot l is at most 2*l*C_l/C_unit.
	for _, i := range stations {
		slotMHz := opts.slotOf(i)
		L := int(capOf(i) / slotMHz)
		for l := 1; l <= L; l++ {
			slotCap := float64(l) * slotMHz / n.CUnit() // l*C_l/C_unit in MB/s
			if prune && !referenceRowCanBind(n, reqs, opts, m.vars, i, slotCap) {
				continue
			}
			var terms []lp.Term
			for idx := range m.vars {
				sv := &m.vars[idx]
				if sv.station != i || sv.slot > l {
					continue
				}
				trunc := slotCap
				if opts.shareCapFor != nil {
					if sc := opts.shareCapFor(i); sc > 0 {
						trunc = math.Min(trunc, sc)
					}
				}
				coef := reqs[sv.req].Dist.ExpectedTruncatedRate(trunc)
				if coef <= 0 {
					continue
				}
				terms = append(terms, lp.Term{Var: lp.Var(idx), Coef: coef})
			}
			if len(terms) == 0 {
				continue
			}
			if _, err := prob.AddConstraint("", lp.LE, 2*slotCap, terms...); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// referenceRowCanBind reports whether the cap row of station i with
// right-hand side 2*slotCap can bind: whether the coefficients of the
// requests with a variable on the station, one per request in variable
// order, sum to at least the right-hand side.
func referenceRowCanBind(n *mec.Network, reqs []*mec.Request, opts lpOptions, vars []slotVar, i int, slotCap float64) bool {
	trunc := slotCap
	if opts.shareCapFor != nil {
		if sc := opts.shareCapFor(i); sc > 0 {
			trunc = math.Min(trunc, sc)
		}
	}
	sum, last := 0.0, -1
	for _, sv := range vars {
		if sv.station != i || sv.req == last {
			continue
		}
		last = sv.req
		sum += reqs[sv.req].Dist.ExpectedTruncatedRate(trunc)
	}
	return sum >= 2*slotCap*(1-1e-9)
}

// diffNetwork builds `islands` disconnected chains of per stations with
// random capacities; edges inside an island weigh 1 ms, so deadlines
// decide how far along its chain a request can be served.
func diffNetwork(t *testing.T, rng *rand.Rand, islands, per int) *mec.Network {
	t.Helper()
	n := islands * per
	g := graph.New(n)
	nodes := make([]topology.Node, n)
	stations := make([]mec.BaseStation, n)
	for i := 0; i < n; i++ {
		nodes[i] = topology.Node{X: float64(i) * 0.1}
		stations[i] = mec.BaseStation{CapacityMHz: 2000 + 2000*rng.Float64(), SpeedFactor: 1}
		if i%per != 0 {
			if _, err := g.AddEdge(i-1, i, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	net, err := mec.NewNetwork(mec.NetworkConfig{
		Stations: stations,
		Topo:     &topology.Topology{Graph: g, Nodes: nodes},
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// diffRequests draws requests with one to three outcomes. Some carry a
// rate-0 outcome only (every cap-row coefficient is zero, so their terms
// are dropped), some a rate so high that the reward mass vanishes from
// the upper slots, and some a deadline that rules out the far end of
// their island or every station.
func diffRequests(t *testing.T, rng *rand.Rand, net *mec.Network, count int) []*mec.Request {
	t.Helper()
	reqs := make([]*mec.Request, count)
	for j := range reqs {
		var outs []dist.Outcome
		switch rng.Intn(6) {
		case 0:
			outs = []dist.Outcome{{Rate: 0, Prob: 1, Reward: 50 + 100*rng.Float64()}}
		case 1:
			outs = []dist.Outcome{
				{Rate: 20 + 20*rng.Float64(), Prob: 0.5, Reward: 300},
				{Rate: 120 + 40*rng.Float64(), Prob: 0.5, Reward: 900},
			}
		default:
			k := 1 + rng.Intn(3)
			for o := 0; o < k; o++ {
				outs = append(outs, dist.Outcome{
					Rate:   30 + 10*float64(o) + 5*rng.Float64(),
					Prob:   1 / float64(k),
					Reward: 300 + 200*rng.Float64(),
				})
			}
		}
		d, err := dist.NewRateReward(outs)
		if err != nil {
			t.Fatal(err)
		}
		reqs[j] = &mec.Request{
			ID:            j,
			AccessStation: rng.Intn(net.NumStations()),
			Tasks:         []mec.Task{{Name: "render", OutputKb: 100, WorkMS: 30}},
			DeadlineMS:    []float64{0.001, 31, 33, 36, 200}[rng.Intn(5)],
			Dist:          d,
		}
	}
	return reqs
}

// diffOptions draws the LP-side knobs: a random occupancy ledger (some
// stations left with less than one slot), one of the four rounding passes'
// slot sizes, sometimes refined per station as a per-slot batch's refined
// pass does, the share cap off, on, or non-positive, an optional waiting
// time, an active subset (sometimes empty, sometimes nil = all), a
// station subset.
func diffOptions(rng *rand.Rand, net *mec.Network, numReqs int) lpOptions {
	used := make([]float64, net.NumStations())
	for i := range used {
		switch rng.Intn(4) {
		case 0:
			used[i] = net.Capacity(i) - 300*rng.Float64()
		case 1:
			used[i] = net.Capacity(i) * rng.Float64()
		}
	}
	opts := lpOptions{
		capOf:   func(i int) float64 { return net.Capacity(i) - used[i] },
		slotMHz: net.SlotMHz() / float64(int(1)<<rng.Intn(4)),
	}
	switch rng.Intn(3) {
	case 0:
		opts.slotMHz = 0 // the network default
	case 1:
		sc := new(slotScratch)
		opts.grid = sc.fillGrid(net, used, cmp.Or(opts.slotMHz, net.SlotMHz()))
	}
	switch rng.Intn(3) {
	case 0:
		share := 5 + 60*rng.Float64()
		opts.shareCapFor = func(int) float64 { return share }
	case 1:
		opts.shareCapFor = func(i int) float64 { return float64(i%3) - 1 } // <= 0 on two stations in three
	}
	if rng.Intn(2) == 0 {
		w := rng.Intn(3)
		opts.waitSlots = func(j int) int { return (j + w) % 2 }
		opts.slotLengthMS = 2
	}
	if rng.Intn(4) > 0 {
		opts.active = []int{}
		for j := 0; j < numReqs; j++ {
			if rng.Intn(8) > 0 && rng.Intn(20) > 0 {
				opts.active = append(opts.active, j)
			}
		}
		if rng.Intn(10) == 0 {
			opts.active = []int{}
		}
	}
	if rng.Intn(2) == 0 {
		for i := 0; i < net.NumStations(); i++ {
			if rng.Intn(3) > 0 {
				opts.stations = append(opts.stations, i)
			}
		}
		if opts.stations == nil {
			opts.stations = []int{0}
		}
	}
	// The draw that chose a name table when the LP had names: kept, so
	// every seed draws the instances it always drew.
	_ = rng.Intn(2)
	return opts
}

// requireSameModel fails unless the two builds agree on the variable
// list, byReq, and the standard form the simplex reads: the one got wrote
// must equal the lowering of want's problem field for field — costs,
// right-hand sides, both copies of the matrix, slack columns and starting
// basis — floats compared by their bits.
func requireSameModel(t *testing.T, label string, got *lpModel, want *refModel, numReqs int) {
	t.Helper()
	if len(got.vars) != len(want.vars) {
		t.Fatalf("%s: %d vars, want %d", label, len(got.vars), len(want.vars))
	}
	for idx := range want.vars {
		g, w := got.vars[idx], want.vars[idx]
		if g.req != w.req || g.station != w.station || g.slot != w.slot ||
			math.Float64bits(g.er) != math.Float64bits(w.er) {
			t.Fatalf("%s: var %d = %+v, want %+v", label, idx, g, w)
		}
	}
	for j := 0; j < numReqs; j++ {
		if !slices.Equal(got.byReq[j], want.byReq[j]) {
			t.Fatalf("%s: byReq[%d] = %v, want %v", label, j, got.byReq[j], want.byReq[j])
		}
	}
	if got.std.NumVars() != want.prob.NumVars() || got.std.NumRows() != want.prob.NumConstraints() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.std.NumRows(), got.std.NumVars(),
			want.prob.NumConstraints(), want.prob.NumVars())
	}
	if got.std.NumVars() == 0 {
		return // nothing written: the slot path solves nothing
	}
	if d := got.std.Diff(want.prob); d != "" {
		t.Fatalf("%s: standard form: %s", label, d)
	}
}

// TestBuildLPMatchesReference is the builder differential: on seeded
// random components the in-place builder — one scratch reused across all
// of them, so every build follows one of another shape — produces the
// LP the reference produces, cap rows that cannot bind dropped alike, and
// the simplex walks it the same way. The
// reference tests every station of the build for delay feasibility; the
// builder reads reach lists, computed per build (fresh) or once over every
// request (reused).
func TestBuildLPMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	bs := new(buildScratch)
	var vars []slotVar
	var reach reachLists
	built, gridBuilt, rows, keptCap, dropped := 0, 0, 0, 0, 0
	for trial := 0; trial < 300; trial++ {
		net := diffNetwork(t, rng, 1+rng.Intn(3), 1+rng.Intn(4))
		reqs := diffRequests(t, rng, net, 1+rng.Intn(14))
		opts := diffOptions(rng, net, len(reqs))
		label := fmt.Sprintf("trial %d", trial)

		want, err := referenceBuildLP(net, reqs, opts, true)
		if err != nil {
			t.Fatalf("%s: reference: %v", label, err)
		}
		fresh, err := buildLP(net, reqs, opts)
		if err != nil {
			t.Fatalf("%s: fresh: %v", label, err)
		}
		requireSameModel(t, label+" fresh", fresh, want, len(reqs))

		// The reused build reads reach lists filled once over every request,
		// as a scheduling call's rounding passes read the call's.
		all := make([]int, len(reqs))
		for j := range all {
			all[j] = j
		}
		reach.fill(net, reqs, all, opts.waitSlots, cmp.Or(opts.slotLengthMS, mec.DefaultSlotLengthMS))
		opts.scratch, opts.vars, opts.reach = bs, vars, &reach
		got, err := buildLP(net, reqs, opts)
		if err != nil {
			t.Fatalf("%s: reused: %v", label, err)
		}
		requireSameModel(t, label+" reused", got, want, len(reqs))
		vars = got.vars

		if want.prob.NumVars() == 0 {
			continue
		}
		built++
		full, err := referenceBuildLP(net, reqs, opts, false)
		if err != nil {
			t.Fatalf("%s: unpruned reference: %v", label, err)
		}
		rows += full.prob.NumConstraints()
		dropped += full.prob.NumConstraints() - want.prob.NumConstraints()
		keptCap += want.prob.NumConstraints()
		for j := range reqs {
			if len(want.byReq[j]) > 0 {
				keptCap-- // an assign row
			}
		}
		if opts.grid != nil {
			gridBuilt++
		}
		wantSol, err := want.prob.Solve()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		gotX := make([]float64, got.std.NumVars())
		gotStatus, gotObj, err := got.std.Solve(gotX, lp.SolveOptions{})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if gotStatus != wantSol.Status || got.std.Iterations() != wantSol.Iterations ||
			math.Float64bits(gotObj) != math.Float64bits(wantSol.Objective) {
			t.Fatalf("%s: solve %v/%d/%v, want %v/%d/%v", label, gotStatus, got.std.Iterations(),
				gotObj, wantSol.Status, wantSol.Iterations, wantSol.Objective)
		}
		for v := range wantSol.X {
			if math.Float64bits(gotX[v]) != math.Float64bits(wantSol.X[v]) {
				t.Fatalf("%s: x[%d] = %v, want %v", label, v, gotX[v], wantSol.X[v])
			}
		}
	}
	// rows counts the unpruned LPs' rows; the pruned ones must both keep
	// and drop cap rows, and some builds must run on a per-station grid.
	if built < 150 || rows < 10*built || keptCap < built || dropped < built || gridBuilt < built/4 {
		t.Fatalf("only %d of 300 trials built an LP (%d rows unpruned, %d cap rows kept, %d dropped, %d builds on a per-station grid): the generator lost its coverage",
			built, rows, keptCap, dropped, gridBuilt)
	}
}

// TestComponentResultsSurviveUntilMerge pins who owns what between the
// build and the merge: every component of a slot is built and solved in
// the slot scratch's one problem, variable list and y buffer, so a
// component's vars and y must be in the merged view before the next
// component's build recycles them. After every slot the merged view still
// equals the concatenation of a fresh reference build-and-solve of each
// component. The slot scratch is kept across slots, so from the second
// slot on all of that storage is the recycled one.
func TestComponentResultsSurviveUntilMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const islands = 9
	net := diffNetwork(t, rng, islands, 3)
	reqs := diffRequests(t, rng, net, 60)
	for _, r := range reqs {
		if r.DeadlineMS < 1 {
			r.DeadlineMS = 200
		}
	}
	sc := new(slotScratch)
	for slot := 0; slot < 6; slot++ {
		var active []int
		for j := range reqs {
			if rng.Intn(3) > 0 {
				active = append(active, j)
			}
		}
		used := make([]float64, net.NumStations())
		for i := range used {
			used[i] = 0.5 * rng.Float64() * net.Capacity(i)
		}
		opts := lpOptions{
			active:  active,
			capOf:   func(i int) float64 { return net.Capacity(i) - used[i] },
			slotMHz: net.SlotMHz(),
		}
		if err := solveDecomposed(net, reqs, opts, solveCfg{}, sc, &sc.merged); err != nil {
			t.Fatal(err)
		}
		comps := sc.comps
		if len(comps) < 3 {
			t.Fatalf("slot %d: %d components, want several sharing the one build scratch", slot, len(comps))
		}
		at, obj := 0, 0.0
		for k, comp := range comps {
			copts := opts
			copts.active, copts.stations = comp.reqs, comp.stations
			want, err := referenceBuildLP(net, reqs, copts, true)
			if err != nil {
				t.Fatal(err)
			}
			wantY, wantObj, err := want.solve()
			if err != nil {
				t.Fatal(err)
			}
			if at+len(want.vars) > len(sc.merged.vars) || len(wantY) != len(want.vars) {
				t.Fatalf("slot %d comp %d: merged holds %d vars, want at least %d", slot, k, len(sc.merged.vars), at+len(want.vars))
			}
			for idx, w := range want.vars {
				m := sc.merged.vars[at+idx]
				if m != w || sc.merged.y[at+idx] != wantY[idx] {
					t.Fatalf("slot %d comp %d var %d: merged %+v y=%v, want %+v y=%v", slot, k, idx, m, sc.merged.y[at+idx], w, wantY[idx])
				}
			}
			at += len(want.vars)
			obj += wantObj
		}
		if at != len(sc.merged.vars) || at != len(sc.merged.y) || sc.merged.obj != obj {
			t.Fatalf("slot %d: merged holds %d vars, %d y, obj %v; components %d, obj %v",
				slot, len(sc.merged.vars), len(sc.merged.y), sc.merged.obj, at, obj)
		}
	}
}

// TestBuildLPWritesStandardForm is the writer differential, modelled on
// lp's TestToStandardMatchesReference. On churn_mesh-shaped slots —
// BenchmarkBuildLP's three shapes, a tighter and a looser deadline — it
// builds every component as the slot path does, from the candidate lists
// splitComponents records and into one reused scratch, on pass 0's grid
// and on the refined per-station grids of passes 1–3, share cap off and
// on. The standard form buildLP writes must equal, field for field and bit
// for bit, the lowering of the same LP built through
// lp.Problem.AddConstraint (referenceBuildLP): costs, right-hand sides,
// both copies of the matrix, the slack columns and the starting basis. A
// NaN coefficient written through the same writer is refused with
// lp.ErrBadCoef and leaves the form as it was.
func TestBuildLPWritesStandardForm(t *testing.T) {
	shapes := []struct {
		stations, requests int
		deadlineMS         float64
	}{{20, 12, 38}, {4, 12, 38}, {20, 48, 38}, {20, 24, 31}, {20, 24, 200}}
	sc := new(slotScratch)
	builds, rows := 0, 0
	for _, shape := range shapes {
		net, reqs, used := churnBatch(t, shape.stations, shape.requests, shape.deadlineMS)
		active := make([]int, len(reqs))
		for j := range active {
			active[j] = j
		}
		sc.reach.fill(net, reqs, active, nil, mec.DefaultSlotLengthMS)
		for pass := 0; pass < 4; pass++ {
			for _, capped := range []bool{false, true} {
				label := fmt.Sprintf("%d stations x %d requests, deadline %v ms, pass %d, share cap %v",
					shape.stations, shape.requests, shape.deadlineMS, pass, capped)
				slotMHz := net.SlotMHz() / float64(int(1)<<pass)
				opts := lpOptions{
					active:       active,
					capOf:        func(i int) float64 { return net.Capacity(i) - used[i] },
					slotMHz:      slotMHz,
					slotLengthMS: mec.DefaultSlotLengthMS,
					reach:        &sc.reach,
				}
				if pass > 0 {
					opts.grid = sc.fillGrid(net, used, slotMHz)
				}
				if capped {
					opts.shareCapFor = func(i int) float64 { return net.Capacity(i) / float64(len(reqs)) / net.CUnit() }
				}
				sc.merged.reset(len(reqs), active)
				copts := opts
				copts.byReq, copts.scratch, copts.cands = sc.merged.byReq, &sc.build, &sc.cands
				for k, comp := range splitComponents(net, reqs, opts, sc) {
					copts.active, copts.stations, copts.vars = comp.reqs, comp.stations, sc.vars
					got, err := buildLP(net, reqs, copts)
					if err != nil {
						t.Fatalf("%s, component %d: %v", label, k, err)
					}
					sc.vars = got.vars
					ropts := opts
					ropts.active, ropts.stations = comp.reqs, comp.stations
					want, err := referenceBuildLP(net, reqs, ropts, true)
					if err != nil {
						t.Fatalf("%s, component %d: reference: %v", label, k, err)
					}
					requireSameModel(t, fmt.Sprintf("%s, component %d", label, k), got, want, len(reqs))
					builds++
					rows += got.std.NumRows()

					got.std.Add(0, math.NaN())
					if _, err := got.std.EndRow(1); !errors.Is(err, lp.ErrBadCoef) {
						t.Fatalf("%s, component %d: a NaN coefficient was not refused: %v", label, k, err)
					}
					requireSameModel(t, fmt.Sprintf("%s, component %d, after the refusal", label, k), got, want, len(reqs))
					for _, j := range comp.reqs {
						got.byReq[j] = got.byReq[j][:0]
					}
				}
			}
		}
	}
	if builds < 60 || rows < 20*builds {
		t.Fatalf("%d component builds with %d rows: the shapes lost their coverage", builds, rows)
	}
}
