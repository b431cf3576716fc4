package core

import (
	"fmt"
	"math"

	"mecoffload/internal/lp"
	"mecoffload/internal/mec"
)

// slotVar identifies one y_{jil} variable of the slot-indexed relaxation.
type slotVar struct {
	req     int // global request index within the workload slice
	station int
	slot    int // 1-based starting resource slot l
	er      float64
	v       lp.Var
}

// lpModel is the built LP relaxation plus variable bookkeeping.
type lpModel struct {
	prob *lp.Problem
	vars []slotVar
	// byReq[j] lists indices into vars of request j's variables (indexed
	// by global request index; empty for inactive requests).
	byReq [][]int
}

// lpOptions tunes buildLP.
type lpOptions struct {
	// active lists the request indices to include; nil means all.
	active []int
	// capOf overrides the usable capacity of a station (residual capacity
	// in later rounding passes and in the online per-slot LPs); nil means
	// the station's full capacity.
	capOf func(station int) float64
	// slotMHz overrides the resource-slot size C_l (0 selects the
	// network default). Iterative rounding passes refine the grid on
	// residual capacities that are smaller than one default slot.
	slotMHz float64
	// shareCap, when non-nil, additionally truncates the expected
	// occupancy of constraint (10): LP-PT's min{C(bs_i)/|R_t|, rho_j,
	// l*C_l/C_unit} term (constraint (23)). The returned value is in
	// MB/s; non-positive values disable the truncation for that station.
	shareCapFor func(station int) float64
	// waitSlots is the scheduling delay already accrued (b_j - a_j) that
	// the delay-feasibility filter must account for.
	waitSlots func(req int) int
	// slotLengthMS converts waitSlots into milliseconds.
	slotLengthMS float64
	// reach, when non-nil, holds the delay-feasible stations under
	// waitSlots and slotLengthMS of every active request (and possibly of
	// more), computed once per scheduling call; nil makes solveDecomposed
	// and buildLP compute them for their own active requests.
	reach *reachLists
	// stations restricts variable and capacity-row creation to these
	// station indices (ascending); nil means all. The per-component
	// decomposition uses it to build one block of the block-diagonal LP.
	stations []int
	// names, when non-nil, interns row/column names across solves; nil
	// leaves every row and column unnamed (nothing warm starts then).
	// Variables and assign rows are named by the request's position within
	// active, not its global index: consecutive batches assign fresh global
	// ids to every arrival, so global names would make structurally
	// identical LPs look different and grow the interned-name table without
	// bound. Station indices (and cap rows) keep their global ids —
	// stations are stable.
	names *nameCache
	// byReq, when non-nil, is used as the model's byReq backing instead of
	// allocating one (entries for active requests must be length-0 and
	// len(byReq) >= len(reqs)). solveDecomposed's component builds share
	// the merged model's: their active sets are disjoint.
	byReq [][]int
	// vars, when non-nil, is the backing the model's variable list is built
	// into (from length 0).
	vars []slotVar
	// scratch, when non-nil, supplies the problem and the builder's
	// temporaries; nil builds into fresh storage.
	scratch *buildScratch
}

// buildScratch is the reusable state of one LP build: the problem itself
// (rebuilt in place through lp.Problem.Reset) and the builder's
// temporaries. The model buildLP returns lives in it, so a scratch serves
// one build at a time and the model is valid until the next build over the
// same scratch. solveDecomposed builds every component of a slot in its
// slotScratch's.
type buildScratch struct {
	model lpModel
	terms []lp.Term
	// default active / stations / reach lists when the options leave them
	// nil
	active   []int
	stations []int
	reach    reachLists
	// variables bucketed by station for the constraint-(10) rows: stPos
	// maps a station index to its position in the stations list, bucket
	// holds the variable indices of station position s, ascending, at
	// bucket[bucketOff[s]:bucketOff[s+1]], and fill is the counting pass's
	// write cursor per station.
	stPos     []int
	bucket    []int
	bucketOff []int
	fill      []int
	// coef holds one station's cap-row coefficients, at the bucket position
	// where each request's run starts.
	coef []float64
}

// buildLP constructs the resource-slot-indexed relaxation LP (Section
// IV-A) over the active requests:
//
//	max  sum_{j,i,l} y_jil * ER_jil
//	s.t. sum_{i,l} y_jil <= 1                                (9)
//	     sum_{j,l'<=l} y_jil' * E[min(rho_j, l*C_l/C_unit)]
//	         <= 2*l*C_l/C_unit          for each station i, slot l  (10)
//	     y_jil = 0 when serving j on i violates its deadline       (11)
//	     y_jil >= 0                                                (12)
//
// Variables are created only for delay-feasible (j, i) pairs and slots
// with positive expected reward ER_jil (Eq. (8)), which keeps the LP
// compact. A request's delay-feasible stations are its reach list
// (opts.reach), so constraint (11) costs the stations the request can
// reach, not the build's station set. The paper's constraint (10) RHS is
// written 2*l*C_l; the division by C_unit here converts it to data-rate
// units so both sides of the inequality carry the same dimension.
//
// Variables are generated request by request (active order), station by
// station (ascending), slot by slot; rows are the assign rows in active
// order, then the cap rows station by station, slot by slot, each row's
// terms in ascending variable order. The warm cache, the decision cache
// and every pinned digest depend on exactly that order.
func buildLP(n *mec.Network, reqs []*mec.Request, opts lpOptions) (*lpModel, error) {
	if n == nil {
		return nil, ErrNilNetwork
	}
	if len(reqs) == 0 {
		return nil, ErrNoRequests
	}
	if opts.slotLengthMS == 0 {
		opts.slotLengthMS = mec.DefaultSlotLengthMS
	}
	bs := opts.scratch
	if bs == nil {
		bs = new(buildScratch)
	}
	active := opts.active
	if active == nil {
		active = growInts(&bs.active, len(reqs))
		for j := range active {
			active[j] = j
		}
	}
	capOf := opts.capOf
	if capOf == nil {
		capOf = n.Capacity
	}
	slotMHz := opts.slotMHz
	if slotMHz <= 0 {
		slotMHz = n.SlotMHz()
	}
	stations := opts.stations
	if stations == nil {
		stations = growInts(&bs.stations, n.NumStations())
		for i := range stations {
			stations[i] = i
		}
	}
	reach := opts.reachOf(n, reqs, active, &bs.reach)
	// stPos maps a station of this build to its position in stations. It is
	// never cleared: an entry left by another build holds a position that
	// is past the list or names another station.
	stPos := growInts(&bs.stPos, n.NumStations())
	for s, i := range stations {
		stPos[i] = s
	}

	m := &bs.model
	if m.prob == nil {
		m.prob = lp.NewProblem(lp.Maximize)
	} else {
		m.prob.Reset()
	}
	prob := m.prob
	m.vars = opts.vars[:0]
	m.byReq = opts.byReq
	if m.byReq == nil {
		m.byReq = make([][]int, len(reqs))
	}

	// bucketOff[s+1] counts station position s's variables while they are
	// generated, and becomes the bucket's end offset below.
	bucketOff := growInts(&bs.bucketOff, len(stations)+1)
	for s := range bucketOff {
		bucketOff[s] = 0
	}
	for k, j := range active {
		r := reqs[j]
		// Constraint (11): only the stations that can meet the deadline
		// with the current waiting time, ascending.
		for _, i := range reach.of(j) {
			s := stPos[i]
			if s >= len(stations) || stations[s] != i {
				continue
			}
			capI := capOf(i)
			L := int(capI / slotMHz)
			for l := 1; l <= L; l++ {
				// Eq. (8): reward mass of rates that fit above slot l.
				maxRate := (capI - float64(l)*slotMHz) / n.CUnit()
				er := r.Dist.RewardMassBelow(maxRate)
				if er <= 0 {
					continue
				}
				v := prob.AddVariable(opts.names.yName(k, i, l), er)
				idx := len(m.vars)
				m.vars = append(m.vars, slotVar{req: j, station: i, slot: l, er: er, v: v})
				m.byReq[j] = append(m.byReq[j], idx)
				bucketOff[s+1]++
			}
		}
	}
	if prob.NumVars() == 0 {
		// No request can be feasibly served anywhere; the caller treats
		// this as an all-reject solution rather than an error.
		return m, nil
	}

	// Constraint (9): each request starts in at most one slot.
	terms := bs.terms[:0]
	for k, j := range active {
		if len(m.byReq[j]) == 0 {
			continue
		}
		terms = terms[:0]
		for _, idx := range m.byReq[j] {
			terms = append(terms, lp.Term{Var: m.vars[idx].v, Coef: 1})
		}
		if _, err := prob.AddConstraint(opts.names.assignName(k), lp.LE, 1, terms...); err != nil {
			return nil, err
		}
	}

	// Bucket the variables by station with a stable counting pass: each
	// bucket lists its station's variables in ascending index order, which
	// is the order a scan of all of m.vars would meet them in.
	fill := growInts(&bs.fill, len(stations))
	for s := range stations {
		bucketOff[s+1] += bucketOff[s]
		fill[s] = bucketOff[s]
	}
	bucket := growInts(&bs.bucket, len(m.vars))
	for idx := range m.vars {
		s := stPos[m.vars[idx].station]
		bucket[fill[s]] = idx
		fill[s]++
	}

	// Constraint (10) per (station, slot): truncated expected occupancy of
	// all variables starting at or below slot l is at most 2*l*C_l/C_unit.
	// The coefficient E[min(rho_j, trunc)] depends on the request and the
	// row's truncation only. A request's variables are adjacent in the
	// bucket with ascending slots, so it is computed once per run of equal
	// requests, into coef at the run's first position, and reused on the
	// station's later rows while trunc stays put — under LP-PT's share cap
	// it does from the first slot that reaches the cap on.
	for s, i := range stations {
		own := bucket[bucketOff[s]:bucketOff[s+1]]
		if len(own) == 0 {
			continue
		}
		coefs := growFloatsClear(&bs.coef, len(own))
		shareCap := 0.0
		if opts.shareCapFor != nil {
			shareCap = opts.shareCapFor(i)
		}
		L := int(capOf(i) / slotMHz)
		lastTrunc := math.NaN()
		for l := 1; l <= L; l++ {
			slotCap := float64(l) * slotMHz / n.CUnit() // l*C_l/C_unit in MB/s
			trunc := slotCap
			if shareCap > 0 {
				trunc = math.Min(trunc, shareCap)
			}
			fresh := trunc != lastTrunc
			lastTrunc = trunc
			terms = terms[:0]
			req, coef := -1, 0.0
			for k, idx := range own {
				sv := &m.vars[idx]
				if sv.req != req {
					req = sv.req
					if fresh {
						coefs[k] = reqs[req].Dist.ExpectedTruncatedRate(trunc)
					}
					coef = coefs[k]
				}
				if sv.slot > l || coef <= 0 {
					continue
				}
				terms = append(terms, lp.Term{Var: sv.v, Coef: coef})
			}
			if len(terms) == 0 {
				continue
			}
			if _, err := prob.AddConstraint(opts.names.capName(i, l), lp.LE, 2*slotCap, terms...); err != nil {
				return nil, err
			}
		}
	}
	bs.terms = terms
	return m, nil
}

// solve runs the simplex and returns the fractional y values aligned with
// m.vars, plus the LP optimum.
func (m *lpModel) solve() ([]float64, float64, error) {
	y, opt, _, err := m.solveWarm(nil, nil)
	return y, opt, err
}

// solveWarm is solve seeded from a previous optimal basis (nil = cold),
// writing the y values into ybuf's storage when it is large enough. It
// additionally returns this solve's optimal basis so a WarmCache can seed
// the same pass and shard of the next batch.
func (m *lpModel) solveWarm(warm *lp.Basis, ybuf []float64) ([]float64, float64, *lp.Basis, error) {
	if m.prob.NumVars() == 0 {
		return nil, 0, nil, nil
	}
	sol, err := m.prob.SolveWithOptions(lp.SolveOptions{WarmStart: warm})
	if err != nil {
		return nil, 0, nil, err
	}
	if sol.Status != lp.StatusOptimal {
		return nil, 0, nil, fmt.Errorf("%w: %v", ErrLPFailed, sol.Status)
	}
	y := ybuf[:0]
	for idx := range m.vars {
		y = append(y, sol.Value(m.vars[idx].v))
	}
	return y, sol.Objective, sol.Basis, nil
}
