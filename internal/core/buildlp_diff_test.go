package core

import (
	"cmp"
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

// referenceBuildLP is buildLP as it stood before the builder took its
// storage from a scratch and bucketed variables by station: a fresh
// problem, a term slice per row, and a scan of every variable for every
// (station, slot) row. It is kept, body unchanged but for its names
// (none, as the builder's), the per-station grid and the
// dropped cap rows, as the reference the in-place builder must reproduce
// row for row and bit for bit. With prune false it emits every cap row
// that has a term: the unpruned LP the exactness test compares against.
func referenceBuildLP(n *mec.Network, reqs []*mec.Request, opts lpOptions, prune bool) (*lpModel, error) {
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
	m := &lpModel{prob: prob, byReq: byReq}

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
				v := prob.AddVariable("", er)
				idx := len(m.vars)
				m.vars = append(m.vars, slotVar{req: j, station: i, slot: l, er: er, v: v})
				m.byReq[j] = append(m.byReq[j], idx)
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
			terms = append(terms, lp.Term{Var: m.vars[idx].v, Coef: 1})
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
				terms = append(terms, lp.Term{Var: sv.v, Coef: coef})
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
// list, byReq, and every name, operator, right-hand side, objective and
// matrix coefficient of the problem, floats compared by their bits. A
// column's entries are kept in row order, so equal dense matrices mean
// equal entry lists.
func requireSameModel(t *testing.T, label string, got, want *lpModel, numReqs int) {
	t.Helper()
	if len(got.vars) != len(want.vars) {
		t.Fatalf("%s: %d vars, want %d", label, len(got.vars), len(want.vars))
	}
	for idx := range want.vars {
		g, w := got.vars[idx], want.vars[idx]
		if g.req != w.req || g.station != w.station || g.slot != w.slot || g.v != w.v ||
			math.Float64bits(g.er) != math.Float64bits(w.er) {
			t.Fatalf("%s: var %d = %+v, want %+v", label, idx, g, w)
		}
	}
	for j := 0; j < numReqs; j++ {
		if !slices.Equal(got.byReq[j], want.byReq[j]) {
			t.Fatalf("%s: byReq[%d] = %v, want %v", label, j, got.byReq[j], want.byReq[j])
		}
	}
	gd, wd := got.prob.Dense(), want.prob.Dense()
	if len(gd.Obj) != len(wd.Obj) || len(gd.A) != len(wd.A) {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, len(gd.A), len(gd.Obj), len(wd.A), len(wd.Obj))
	}
	for v := range wd.Obj {
		if gd.Names[v] != wd.Names[v] || math.Float64bits(gd.Obj[v]) != math.Float64bits(wd.Obj[v]) {
			t.Fatalf("%s: column %d = %q obj %v, want %q obj %v", label, v, gd.Names[v], gd.Obj[v], wd.Names[v], wd.Obj[v])
		}
	}
	for r := range wd.A {
		if gd.RowNames[r] != wd.RowNames[r] || gd.Ops[r] != wd.Ops[r] ||
			math.Float64bits(gd.RHS[r]) != math.Float64bits(wd.RHS[r]) {
			t.Fatalf("%s: row %d = %q %v %v, want %q %v %v", label, r,
				gd.RowNames[r], gd.Ops[r], gd.RHS[r], wd.RowNames[r], wd.Ops[r], wd.RHS[r])
		}
		for v := range wd.A[r] {
			if math.Float64bits(gd.A[r][v]) != math.Float64bits(wd.A[r][v]) {
				t.Fatalf("%s: A[%s][%s] = %v, want %v", label, wd.RowNames[r], wd.Names[v], gd.A[r][v], wd.A[r][v])
			}
		}
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
		gotSol, err := got.prob.Solve()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if gotSol.Status != wantSol.Status || gotSol.Iterations != wantSol.Iterations ||
			math.Float64bits(gotSol.Objective) != math.Float64bits(wantSol.Objective) {
			t.Fatalf("%s: solve %v/%d/%v, want %v/%d/%v", label, gotSol.Status, gotSol.Iterations,
				gotSol.Objective, wantSol.Status, wantSol.Iterations, wantSol.Objective)
		}
		for v := range wantSol.X {
			if math.Float64bits(gotSol.X[v]) != math.Float64bits(wantSol.X[v]) {
				t.Fatalf("%s: x[%d] = %v, want %v", label, v, gotSol.X[v], wantSol.X[v])
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
