package core

import (
	"slices"

	"mecoffload/internal/mec"
)

// component is one connected component of the request-station candidate
// bipartite graph: a variable y_{jil} can only couple a request to a
// station it is delay-feasible on with positive expected reward, so the
// slot LP is block-diagonal across components and each block solves
// independently. key is the smallest station index of the component — the
// stable shard label the decision cache (and a WarmCache) files the
// component under.
type component struct {
	key      int
	stations []int // ascending
	reqs     []int // active request indices, in the caller's active order
}

// reachLists holds each scheduled request's delay-feasible stations
// (constraint (11), mec.Request.AppendReach), ascending. A request's wait
// is fixed within a scheduling call, so roundingLoop fills the lists once
// and every rounding pass reads them; a pass's active requests are a
// subset of the call's.
type reachLists struct {
	stations []int
	off      []int // request at position k: stations[off[k]:off[k+1]]
	pos      []int // global request index -> position; valid for filled requests only
}

// fill computes the reach lists of the active requests.
func (rl *reachLists) fill(n *mec.Network, reqs []*mec.Request, active []int, waitSlots func(int) int, slotLenMS float64) {
	rl.stations = rl.stations[:0]
	off := growInts(&rl.off, len(active)+1)
	pos := growInts(&rl.pos, len(reqs))
	for k, j := range active {
		wait := 0
		if waitSlots != nil {
			wait = waitSlots(j)
		}
		off[k], pos[j] = len(rl.stations), k
		rl.stations = reqs[j].AppendReach(rl.stations, n, wait, slotLenMS)
	}
	off[len(active)] = len(rl.stations)
}

// of returns request j's delay-feasible stations.
func (rl *reachLists) of(j int) []int {
	k := rl.pos[j]
	return rl.stations[rl.off[k]:rl.off[k+1]]
}

// reachOf returns the reach lists the options carry, or fills rl over
// active when they carry none.
func (o *lpOptions) reachOf(n *mec.Network, reqs []*mec.Request, active []int, rl *reachLists) *reachLists {
	if o.reach != nil {
		return o.reach
	}
	rl.fill(n, reqs, active, o.waitSlots, o.slotLengthMS)
	return rl
}

// hasCandidate reports whether at least one y_{j,i,l} variable would be
// created for (request j, station i), given that i is on j's reach list:
// slot l=1 has positive expected reward. ER_jil is non-increasing in l
// (the rate ceiling (cap_i - l*C_l)/C_unit shrinks as l grows), so testing
// l=1 is exact.
func hasCandidate(n *mec.Network, r *mec.Request, capI, slotMHz float64) bool {
	if capI < slotMHz { // L = floor(capI/slotMHz) < 1: no slots at all
		return false
	}
	return r.Dist.RewardMassBelow((capI-slotMHz)/n.CUnit()) > 0
}

// splitComponents partitions the active requests and their candidate
// stations into connected components via union-find over stations. A
// request's candidates are the stations on its reach list (opts.reach,
// which the caller must set) that pass hasCandidate, so a request costs
// the stations it can reach, not the network. Requests with no feasible
// station appear in no component (the LP has no variable for them; they
// stay undecided). Components are returned in ascending order of their
// key, and their station and request lists preserve ascending-station and
// caller-active order respectively — the orderings the deterministic merge
// in solveDecomposed relies on.
//
// When record is set, the scan additionally captures each active
// request's candidate station list (sc.cands/sc.candOff, indexed by
// active position via sc.posOf) — the incremental signatures consume
// them, and recording during this scan means candidacy is never
// recomputed.
func splitComponents(n *mec.Network, reqs []*mec.Request, opts lpOptions, sc *slotScratch, record bool) []component {
	nS := n.NumStations()
	parent := growInts(&sc.parent, nS)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]] // path halving
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra // attach to the smaller root: roots stay minimal
		}
	}

	stUsed := growBoolsClear(&sc.stUsed, nS)
	firstOf := growInts(&sc.firstOf, len(opts.active))
	capOf := opts.capOf
	if capOf == nil {
		capOf = n.Capacity
	}
	var cands []int
	var candOff, posOf []int
	if record {
		cands = sc.cands[:0]
		candOff = growInts(&sc.candOff, len(opts.active)+1)
		posOf = growInts(&sc.posOf, len(reqs))
	}
	for k, j := range opts.active {
		r := reqs[j]
		if record {
			candOff[k] = len(cands)
			posOf[j] = k
		}
		first := -1
		for _, i := range opts.reach.of(j) {
			if !hasCandidate(n, r, capOf(i), opts.slotMHz) {
				continue
			}
			if record {
				cands = append(cands, i)
			}
			stUsed[i] = true
			if first < 0 {
				first = i
			} else {
				union(first, i)
			}
		}
		firstOf[k] = first
	}
	if record {
		candOff[len(opts.active)] = len(cands)
		sc.cands = cands
	}

	// Components materialize in ascending-min-station order because the
	// station scan below runs ascending and creates each component at its
	// smallest member.
	rootComp := growInts(&sc.rootComp, nS)
	for i := range rootComp {
		rootComp[i] = -1
	}
	comps := sc.comps[:0]
	for i := 0; i < nS; i++ {
		if !stUsed[i] {
			continue
		}
		root := find(i)
		c := rootComp[root]
		if c < 0 {
			c = len(comps)
			rootComp[root] = c
			// A recycled slot hands its station and request lists on.
			var old component
			if c < cap(comps) {
				old = comps[:c+1][c]
			}
			comps = append(comps, component{key: i, stations: old.stations[:0], reqs: old.reqs[:0]})
		}
		comps[c].stations = append(comps[c].stations, i)
	}
	for k, j := range opts.active {
		if firstOf[k] < 0 {
			continue
		}
		c := rootComp[find(firstOf[k])]
		comps[c].reqs = append(comps[c].reqs, j)
	}
	sc.comps = comps // retain the components and their lists for reuse
	return comps
}

// mergedModel is the deterministic concatenation of the per-component LP
// solutions, presented in the same shape the rounding step consumed from
// the monolithic lpModel: a global variable list, per-request variable
// indices, and the fractional y vector. obj is the sum of component
// objectives, which equals the monolithic LP optimum because the LP is
// block-diagonal across components.
type mergedModel struct {
	vars  []slotVar
	byReq [][]int // global request index -> indices into vars
	// reqs is the pass's request list, ascending: only these entries of
	// byReq can be non-empty.
	reqs []int
	y    []float64
	obj  float64
}

// reset clears the merged model for a pass over the active requests,
// retaining capacity. Only the previous pass's requests can hold
// variables, so only their lists are cleared: a live engine's request
// indices run up to its whole decided backlog, and a pass costs its batch.
func (m *mergedModel) reset(numReqs int, active []int) {
	m.vars = m.vars[:0]
	m.y = m.y[:0]
	m.obj = 0
	for _, j := range m.reqs {
		m.byReq[j] = m.byReq[j][:0]
	}
	for len(m.byReq) < numReqs {
		m.byReq = append(m.byReq, nil)
	}
	m.reqs = append(m.reqs[:0], active...)
	slices.Sort(m.reqs)
}

// solveCfg bundles the solver-side knobs of solveDecomposed (the LP-side
// knobs travel in lpOptions).
type solveCfg struct {
	warm *WarmCache
	pass int
	// inc, when non-nil, replays the cached decision of every component
	// whose signature it has solved before; nil re-solves everything. The
	// replay is only exact for cold solves, so inc and warm never meet
	// (ScheduleBatch refuses the pair).
	inc *IncCache
}

// solveDecomposed builds and solves the slot LP component by component,
// each component warm-started from its own shard's basis when cfg.warm is
// set and cold otherwise, and appends the results to m in ascending
// component-key order. It is sequential on purpose: a slot is a handful
// of sub-millisecond solves, and the axes that do run in parallel are
// coarser — the cluster's shards each own their caches, the experiment
// grid's cells their instances, and each calls this from one goroutine.
//
// cfg.inc enables decision reuse: a component whose exact input signature
// matches the cached one is *clean* and replays the cached solution
// without building an LP. A dirty component is solved exactly as without
// the cache, cold, and its solution is cached. A cold solve is a pure
// function of its LP, so a run with the cache and a run without agree
// decision for decision — the oracle differential DiffIncrementalFull
// pins that contract.
func solveDecomposed(n *mec.Network, reqs []*mec.Request, opts lpOptions, cfg solveCfg, sc *slotScratch, m *mergedModel) error {
	if opts.slotLengthMS == 0 {
		opts.slotLengthMS = mec.DefaultSlotLengthMS
	}
	if opts.slotMHz <= 0 {
		opts.slotMHz = n.SlotMHz()
	}
	if opts.capOf == nil {
		opts.capOf = n.Capacity
	}
	if opts.active == nil {
		all := growInts(&sc.activeAll, len(reqs))
		for j := range all {
			all[j] = j
		}
		opts.active = all
	}
	opts.reach = opts.reachOf(n, reqs, opts.active, &sc.reach)
	inc := cfg.inc
	warm, pass := cfg.warm, cfg.pass
	m.reset(len(reqs), opts.active)
	comps := splitComponents(n, reqs, opts, sc, inc != nil)
	if len(comps) == 0 {
		return nil
	}

	// Look-up pass: a component's exact signature is compared word for
	// word against the cached entry under the same (pass, shard) key. A
	// match means its LP is bit-identical to the one the entry was solved
	// on, and the entry is replayed with the solve skipped entirely.
	replays := growReplays(&sc.replays, len(comps))
	var sigOff []int
	if inc != nil {
		sc.sigs = sc.sigs[:0]
		sigOff = growInts(&sc.sigOff, len(comps)+1)
		for k := range comps {
			sigOff[k] = len(sc.sigs)
			sc.sigs = appendCompSig(sc.sigs, reqs, opts, comps[k], sc)
			e := inc.get(pass, comps[k].key)
			if e != nil && slices.Equal(e.sig, sc.sigs[sigOff[k]:]) {
				replays[k] = e
				inc.cleanHits.Add(1)
				continue
			}
			inc.dirtySolves.Add(1)
		}
		sigOff[len(comps)] = len(sc.sigs)
	}

	// One pass in key order: replay or build-solve, append to the merged
	// model with local variable indices rebased onto the concatenation,
	// and cache. A clean component materializes its position-space cached
	// vars back into global request indices.
	copts := opts
	copts.byReq = m.byReq
	copts.scratch = &sc.build
	for k, comp := range comps {
		offset := len(m.vars)
		if e := replays[k]; e != nil {
			for t := range e.vars {
				cv := &e.vars[t]
				j := comp.reqs[cv.req]
				m.vars = append(m.vars, slotVar{req: j, station: cv.station, slot: cv.slot, er: cv.er})
				m.byReq[j] = append(m.byReq[j], offset+t)
			}
			m.y = append(m.y, e.y...)
			m.obj += e.obj
			continue
		}
		// The model lives in sc.build until the next component's build; vars
		// and y are copied out into m before that.
		copts.active = comp.reqs
		copts.stations = comp.stations
		copts.vars = sc.vars
		model, err := buildLP(n, reqs, copts)
		if err != nil {
			return err
		}
		sc.vars = model.vars
		y, obj, basis, err := model.solveWarm(warm.get(pass, comp.key), sc.y)
		if err != nil {
			return err
		}
		if y != nil {
			sc.y = y
		}
		warm.put(pass, comp.key, basis)
		m.vars = append(m.vars, model.vars...)
		m.y = append(m.y, y...)
		m.obj += obj
		if offset > 0 {
			for _, j := range comp.reqs {
				idxs := m.byReq[j]
				for t := range idxs {
					idxs[t] += offset
				}
			}
		}
		if inc != nil {
			inc.put(pass, comp.key, sc.sigs[sigOff[k]:sigOff[k+1]], model.vars, y, obj, comp.reqs)
		}
	}
	return nil
}
