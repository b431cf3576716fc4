package core

import (
	"sync"
	"sync/atomic"

	"mecoffload/internal/mec"
)

// component is one connected component of the request-station candidate
// bipartite graph: a variable y_{jil} can only couple a request to a
// station it is delay-feasible on with positive expected reward, so the
// slot LP is block-diagonal across components and each block solves
// independently. key is the smallest station index of the component — the
// stable shard label the warm cache files the component's basis under.
type component struct {
	key      int
	stations []int // ascending
	reqs     []int // active request indices, in the caller's active order
}

// hasCandidate reports whether at least one y_{j,i,l} variable would be
// created for (request j, station i): the pair is delay-feasible and slot
// l=1 has positive expected reward. ER_jil is non-increasing in l (the
// rate ceiling (cap_i - l*C_l)/C_unit shrinks as l grows), so testing
// l=1 is exact.
func hasCandidate(n *mec.Network, r *mec.Request, i, wait int, capI, slotMHz, slotLenMS float64) bool {
	if capI < slotMHz { // L = floor(capI/slotMHz) < 1: no slots at all
		return false
	}
	if !r.DelayFeasible(n, i, wait, slotLenMS) {
		return false
	}
	return r.Dist.RewardMassBelow((capI-slotMHz)/n.CUnit()) > 0
}

// splitComponents partitions the active requests and their candidate
// stations into connected components via union-find over stations.
// Requests with no feasible station appear in no component (the LP has no
// variable for them; they stay undecided). Components are returned in
// ascending order of their key, and their station and request lists
// preserve ascending-station and caller-active order respectively — the
// orderings the deterministic merge in solveDecomposed relies on.
//
// When record is set, the scan additionally captures each active
// request's candidate station list (sc.cands/sc.candOff, indexed by
// active position via sc.posOf) — the incremental signatures and the
// local-ratio certification consume them, and recording during this scan
// means candidacy is never recomputed.
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
		wait := 0
		if opts.waitSlots != nil {
			wait = opts.waitSlots(j)
		}
		if record {
			candOff[k] = len(cands)
			posOf[j] = k
		}
		first := -1
		for i := 0; i < nS; i++ {
			if !hasCandidate(n, r, i, wait, capOf(i), opts.slotMHz, opts.slotLengthMS) {
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
	y     []float64
	obj   float64
}

// reset clears the merged model for a new pass, retaining capacity.
func (m *mergedModel) reset(numReqs int) {
	m.vars = m.vars[:0]
	m.y = m.y[:0]
	m.obj = 0
	for j := range m.byReq {
		m.byReq[j] = m.byReq[j][:0]
	}
	for len(m.byReq) < numReqs {
		m.byReq = append(m.byReq, nil)
	}
}

// compSolve is one component's build-and-solve outcome. Exactly one of
// three shapes: a clean-cache hit (cached != nil, nothing was solved), a
// fresh solve (vars/y/obj from the LP or the local-ratio fast path), or
// an error.
type compSolve struct {
	vars []slotVar // global request indices, component-local var indices
	y    []float64
	obj  float64
	// cached, when non-nil, is the decision-cache entry this clean
	// component replays instead of solving anything.
	cached *incEntry
	// canonical marks a fresh solve whose solution every further solve of
	// the unchanged component reproduces, so the cache may replay it: the
	// LP solve of a signature's second sighting (seeded from the first
	// one's own optimal basis, it pivots zero times, and so does every
	// solve after it), or a local-ratio certificate (the unique optimum).
	canonical bool
	err       error
}

// solveCfg bundles the solver-side knobs of solveDecomposed (the LP-side
// knobs travel in lpOptions).
type solveCfg struct {
	warm    *WarmCache
	pass    int
	workers int
	// inc, when non-nil, replays the cached decision of every component
	// whose signature it has solved twice; nil re-solves everything.
	inc *IncCache
	// fast enables the local-ratio fast path on dirty components.
	fast bool
}

// solveDecomposed builds and solves the slot LP component by component on
// a bounded worker pool, each component warm-started from its own shard's
// basis, and merges the results into m in ascending component-key order.
// The merged output is bit-identical for every workers value: components
// are solved independently (the LP is block-diagonal) and the merge order
// is fixed, so parallelism changes wall-clock time and nothing else.
//
//   - cfg.inc enables decision reuse: a component whose exact input
//     signature matches a cached canonical solution is *clean* and
//     replays it without building an LP. A dirty component is solved
//     exactly as without the cache; a signature miss then caches the
//     signature alone, and the first matching sighting — whose warm seed
//     is the miss's own optimal basis — caches its solution too. A run
//     with the cache and a run without therefore agree decision for
//     decision — the oracle differential DiffIncrementalFull pins that
//     contract.
//   - cfg.fast enables the LP-free fast path on dirty components: when
//     tryLocalRatio's certificate holds, its schedule is provably the
//     unique LP optimum and is used (and cached) directly.
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
	inc := cfg.inc
	warm, pass := cfg.warm, cfg.pass
	m.reset(len(reqs))
	comps := splitComponents(n, reqs, opts, sc, inc != nil || cfg.fast)
	if len(comps) == 0 {
		return nil
	}

	results := growCompSolves(&sc.results, len(comps))
	seeds := growSeeds(&sc.seeds, len(comps))

	// Clean check, sequential and before the workers: build each
	// component's exact signature and compare it word-for-word against
	// the cached entry under the same (pass, shard) key. A match means
	// the component's LP is bit-identical to the one the entry was solved
	// on: a canonical entry is replayed and the solve skipped entirely, a
	// signature-only entry makes this solve the canonical one.
	var sigOff []int
	if inc != nil {
		sc.sigs = sc.sigs[:0]
		sigOff = growInts(&sc.sigOff, len(comps)+1)
		for k := range comps {
			sigOff[k] = len(sc.sigs)
			sc.sigs = appendCompSig(sc.sigs, reqs, opts, comps[k], sc)
		}
		sigOff[len(comps)] = len(sc.sigs)
		for k := range comps {
			e := inc.get(pass, comps[k].key)
			seen := e != nil && wordsEqual(e.sig, sc.sigs[sigOff[k]:sigOff[k+1]])
			if seen && e.canonical {
				results[k].cached = e
				inc.cleanHits.Add(1)
				continue
			}
			results[k].canonical = seen
			inc.dirtySolves.Add(1)
		}
	}

	// Resolve every dirty component's warm-start seed before the workers
	// launch, against a fixed pre-pass cache snapshot: that keeps the
	// seeds — and therefore the chosen optimal vertices — identical for
	// every worker count. Positional names go with exact-shard seeds: a
	// nearest-shard basis would resolve onto a different component's
	// positionally-named requests, and the decision cache's parity
	// argument leans on each component re-seeding from its own previous
	// basis. The offline passes, named by request index, take the nearest.
	for k := range comps {
		if results[k].cached == nil {
			seeds[k] = warm.get(pass, comps[k].key, !opts.positional)
		}
	}
	solveOne := func(k int) {
		r := &results[k]
		if r.cached != nil {
			return
		}
		comp := comps[k]
		copts := opts
		copts.active = comp.reqs
		copts.stations = comp.stations
		copts.byReq = m.byReq // disjoint request sets: no write overlap
		if cfg.fast {
			if vars, y, obj, ok := tryLocalRatio(n, reqs, comp, copts); ok {
				inc.addFastPath()
				*r = compSolve{vars: vars, y: y, obj: obj, canonical: true}
				return
			}
			inc.addFastFallback()
		}
		// The problem and the builder's temporaries are borrowed for this
		// one solve; vars and y are written into the component's own result
		// storage, which nothing touches again before the merge.
		bs := buildScratchPool.Get().(*buildScratch)
		defer buildScratchPool.Put(bs)
		copts.scratch = bs
		copts.vars = r.vars
		model, err := buildLP(n, reqs, copts)
		if err != nil {
			r.err = err
			return
		}
		y, obj, basis, err := model.solveWarm(seeds[k], r.y)
		if err != nil {
			r.err = err
			return
		}
		warm.put(pass, comp.key, basis)
		r.vars, r.y, r.obj = model.vars, y, obj
	}
	forEachParallel(len(comps), cfg.workers, solveOne)

	// Deterministic merge: components in key order, local variable indices
	// rebased onto the global concatenation. Clean components materialize
	// their position-space cached vars back into global request indices.
	for k := range results {
		r := &results[k]
		if r.err != nil {
			return r.err
		}
		offset := len(m.vars)
		if e := r.cached; e != nil {
			for t := range e.vars {
				cv := &e.vars[t]
				j := comps[k].reqs[cv.req]
				m.vars = append(m.vars, slotVar{req: j, station: cv.station, slot: cv.slot, er: cv.er})
				m.byReq[j] = append(m.byReq[j], offset+t)
			}
			m.y = append(m.y, e.y...)
			m.obj += e.obj
			continue
		}
		m.vars = append(m.vars, r.vars...)
		m.y = append(m.y, r.y...)
		m.obj += r.obj
		if offset > 0 {
			for _, j := range comps[k].reqs {
				idxs := m.byReq[j]
				for t := range idxs {
					idxs[t] += offset
				}
			}
		}
		if inc != nil {
			inc.put(pass, comps[k].key, sc.sigs[sigOff[k]:sigOff[k+1]], r, comps[k].reqs)
		}
	}
	return nil
}

// wordsEqual reports whether two signature slices are identical.
func wordsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// forEachParallel runs f(0..n-1) on at most `workers` goroutines. workers
// <= 1 runs inline. The iteration set is fixed up front, so the result is
// independent of how indices are interleaved across workers.
func forEachParallel(n, workers int, f func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}
