package core

import (
	"fmt"
	"math"
	"slices"

	"mecoffload/internal/lp"
	"mecoffload/internal/mec"
)

// slotVar identifies one y_{jil} variable of the slot-indexed relaxation.
// In a built model a variable's LP column is its index in the model's
// variable list.
type slotVar struct {
	req     int // global request index within the workload slice
	station int
	slot    int // 1-based starting resource slot l
	er      float64
}

// lpModel is the built LP relaxation plus variable bookkeeping.
type lpModel struct {
	// std is the LP itself, written in the simplex's standard form.
	std  *lp.Standard
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
	// grid, when non-nil, is the slot size per station (indexed by station
	// index) and overrides slotMHz: a per-slot batch's refined passes give
	// each station its own grid (roundingLoop). nil means slotMHz on every
	// station.
	grid []float64
	// shareCapFor, when non-nil, additionally truncates the expected
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
	// cands, when non-nil, holds the candidate stations of every active
	// request under this pass's capacities and grid, with their slot-1
	// reward (splitComponents fills them); nil makes buildLP compute them
	// from reach for its own active requests and stations.
	cands *candLists
	// stations restricts variable and capacity-row creation to these
	// station indices (ascending); nil means all. The per-component
	// decomposition uses it to build one block of the block-diagonal LP.
	stations []int
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

// slotOf returns station i's resource-slot size: its grid entry, or
// slotMHz when the options carry no per-station grid.
func (o *lpOptions) slotOf(i int) float64 {
	if o.grid != nil {
		return o.grid[i]
	}
	return o.slotMHz
}

// buildScratch is the reusable state of one LP build: the LP itself
// (rewritten in place through lp.Standard.Reset) and the builder's
// temporaries. The model buildLP returns lives in it, so a scratch serves
// one build at a time and the model is valid until the next build over the
// same scratch. solveDecomposed builds every component of a slot in its
// slotScratch's.
type buildScratch struct {
	model lpModel
	std   lp.Standard
	// default active / stations / reach / candidate lists when the options
	// leave them nil, and the station mask of a build over a subset
	active   []int
	stations []int
	reach    reachLists
	cands    candLists
	in       []bool
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
// compact: a request's variables sit on its candidate stations
// (opts.cands, the reach list's stations where ER_ji1 > 0), so
// constraint (11) costs the stations the request can reach, not the
// build's station set, and slot 1's reward is the one the candidate scan
// computed. The paper's constraint (10) RHS is written 2*l*C_l; the
// division by C_unit here converts it to data-rate units so both sides of
// the inequality carry the same dimension. C_l is the station's slot size
// (opts.slotOf), and a cap row that cannot bind is not built.
//
// Variables are generated request by request (active order), station by
// station (ascending), slot by slot; rows are the assign rows in active
// order, then the cap rows station by station, slot by slot, each row's
// terms in ascending variable order. The LP is written straight into the
// simplex's standard form (lp.Standard), row by row in that order. The
// warm cache, the decision cache and every pinned digest depend on
// exactly that order.
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
		opts.active = active
	}
	if opts.capOf == nil {
		opts.capOf = n.Capacity
	}
	capOf := opts.capOf
	if opts.slotMHz <= 0 {
		opts.slotMHz = n.SlotMHz()
	}
	stations := opts.stations
	if stations == nil {
		stations = growInts(&bs.stations, n.NumStations())
		for i := range stations {
			stations[i] = i
		}
	}
	cands := opts.cands
	if cands == nil {
		var in []bool
		if opts.stations != nil {
			in = growBoolsClear(&bs.in, n.NumStations())
			for _, i := range stations {
				in[i] = true
			}
		}
		opts.reach = opts.reachOf(n, reqs, active, &bs.reach)
		bs.cands.fill(n, reqs, &opts, in)
		cands = &bs.cands
	}
	// stPos maps a station of this build to its position in stations; every
	// candidate station is one of them. It is never cleared: an entry left
	// by another build is never read.
	stPos := growInts(&bs.stPos, n.NumStations())
	for s, i := range stations {
		stPos[i] = s
	}

	m := &bs.model
	m.std = &bs.std
	w := m.std
	w.Reset()
	m.vars = opts.vars[:0]
	m.byReq = opts.byReq
	if m.byReq == nil {
		m.byReq = make([][]int, len(reqs))
	}

	// bucketOff[s+1] counts station position s's variables while they are
	// generated, and becomes the bucket's end offset below.
	bucketOff := growInts(&bs.bucketOff, len(stations)+1)
	clear(bucketOff)
	for _, j := range active {
		r := reqs[j]
		sts, ers := cands.of(j)
		for t, i := range sts {
			s := stPos[i]
			capI, slotMHz := capOf(i), opts.slotOf(i)
			L := int(capI / slotMHz)
			er := ers[t]
			for l := 1; l <= L; l++ {
				if l > 1 {
					// Eq. (8): reward mass of rates that fit above slot l.
					// It is non-increasing in l, so the first slot without
					// any ends the station.
					maxRate := (capI - float64(l)*slotMHz) / n.CUnit()
					if er = r.Dist.RewardMassBelow(maxRate); er <= 0 {
						break
					}
				}
				w.AddVariable(er)
				m.byReq[j] = append(m.byReq[j], len(m.vars))
				m.vars = append(m.vars, slotVar{req: j, station: i, slot: l, er: er})
				bucketOff[s+1]++
			}
		}
	}
	if len(m.vars) == 0 {
		// No request can be feasibly served anywhere; the caller treats
		// this as an all-reject solution rather than an error.
		return m, nil
	}

	// Constraint (9): each request starts in at most one slot.
	for _, j := range active {
		if len(m.byReq[j]) == 0 {
			continue
		}
		for _, idx := range m.byReq[j] {
			w.Add(lp.Var(idx), 1)
		}
		if _, err := w.EndRow(1); err != nil {
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
	//
	// A row that cannot bind is never emitted. ER is non-increasing in l,
	// so every request with a variable on the station has one at slot 1
	// and a term in every row; its terms sum to at most its coefficient,
	// because row (9) caps its variables at a sum of 1. When the
	// coefficients of all the station's requests sum to less than the
	// right-hand side, the row's slack is positive at every feasible point:
	// it is basic in every basic solution and its dual is 0, so dropping
	// the row leaves the optimum and the pivots as they were.
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
		slotMHz := opts.slotOf(i)
		L := int(capOf(i) / slotMHz)
		lastTrunc, fill := math.NaN(), 0.0
		for l := 1; l <= L; l++ {
			slotCap := float64(l) * slotMHz / n.CUnit() // l*C_l/C_unit in MB/s
			trunc := slotCap
			if shareCap > 0 {
				trunc = min(trunc, shareCap)
			}
			if trunc != lastTrunc {
				lastTrunc, fill = trunc, 0
				req := -1
				for k, idx := range own {
					if r := m.vars[idx].req; r != req {
						req = r
						coefs[k] = reqs[r].Dist.ExpectedTruncatedRate(trunc)
						fill += coefs[k]
					}
				}
			}
			if fill < 2*slotCap*(1-1e-9) {
				continue
			}
			terms := 0
			req, coef := -1, 0.0
			for k, idx := range own {
				sv := &m.vars[idx]
				if sv.req != req {
					req, coef = sv.req, coefs[k]
				}
				if sv.slot > l || coef <= 0 {
					continue
				}
				w.Add(lp.Var(idx), coef)
				terms++
			}
			if terms == 0 {
				continue
			}
			if _, err := w.EndRow(2 * slotCap); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// solve runs the simplex cold and returns the fractional y values aligned
// with m.vars, plus the LP optimum.
func (m *lpModel) solve() ([]float64, float64, error) {
	return m.solveWarm(nil, nil)
}

// solveWarm is solve seeded from a previous optimal basis (nil = cold),
// writing the y values into ybuf's storage when it is large enough. The
// solve's own optimal basis stays in m.std for a caller that files it
// (lp.Standard.Basis).
func (m *lpModel) solveWarm(warm *lp.Basis, ybuf []float64) ([]float64, float64, error) {
	if len(m.vars) == 0 {
		return nil, 0, nil
	}
	y := slices.Grow(ybuf[:0], len(m.vars))[:len(m.vars)]
	status, obj, err := m.std.Solve(y, lp.SolveOptions{WarmStart: warm})
	if err != nil {
		return nil, 0, err
	}
	if status != lp.StatusOptimal {
		return nil, 0, fmt.Errorf("%w: %v", ErrLPFailed, status)
	}
	return y, obj, nil
}
