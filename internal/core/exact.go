package core

import (
	"fmt"
	"math/rand"
	"time"

	"mecoffload/internal/lp"
	"mecoffload/internal/mec"
)

// ExactOptions tunes the exact ILP solve.
type ExactOptions struct {
	// RelativeGap is the branch-and-bound optimality gap (0 selects
	// 1e-4): assignment ILPs with near-tied rewards otherwise spend
	// exponential time separating equivalent optima.
	RelativeGap float64
}

// exactMaxNodes caps Exact's branch-and-bound nodes. The exact algorithm
// is intended for small instances only (Section I: "an exact solution for
// the problem if the problem size is small").
const exactMaxNodes = 50000

// Exact solves ILP-RM (Section IV-A) by branch and bound over the
// assignment variables x_ji:
//
//	max  sum_{j,i} x_ji * E[RD_j]
//	s.t. sum_i x_ji <= 1                      (3)
//	     sum_j x_ji * E(rho_j) * C_unit <= C(bs_i)   (4)
//	     D_j <= D̂_j  (variables filtered)    (5)
//	     x_ji in {0, 1}                       (6)
//
// After the plan is fixed, data rates realize (using rng) and rewards are
// collected for requests whose realized demand fits the remaining station
// capacity, making the Result directly comparable with Appro and Heu.
func Exact(n *mec.Network, reqs []*mec.Request, rng *rand.Rand, opts ExactOptions) (*Result, error) {
	if n == nil {
		return nil, ErrNilNetwork
	}
	if len(reqs) == 0 {
		return nil, ErrNoRequests
	}
	start := time.Now()

	prob := lp.NewProblem(lp.Maximize)
	type xVar struct {
		req, station int
		v            lp.Var
	}
	var vars []xVar
	byReq := make([][]int, len(reqs))
	byStation := make([][]int, n.NumStations())
	for j, r := range reqs {
		for i := 0; i < n.NumStations(); i++ {
			if !r.DelayFeasible(n, i, 0, mec.DefaultSlotLengthMS) {
				continue
			}
			v := prob.AddIntegerVariable(fmt.Sprintf("x[%d,%d]", j, i), r.ExpectedReward())
			idx := len(vars)
			vars = append(vars, xVar{req: j, station: i, v: v})
			byReq[j] = append(byReq[j], idx)
			byStation[i] = append(byStation[i], idx)
		}
	}

	res := NewResult("Exact", len(reqs))
	if len(vars) == 0 {
		res.Runtime = time.Since(start)
		return res, nil
	}

	for j := range reqs {
		if len(byReq[j]) == 0 {
			continue
		}
		terms := make([]lp.Term, 0, len(byReq[j]))
		for _, idx := range byReq[j] {
			terms = append(terms, lp.Term{Var: vars[idx].v, Coef: 1})
		}
		if _, err := prob.AddConstraint(fmt.Sprintf("assign[%d]", j), lp.LE, 1, terms...); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n.NumStations(); i++ {
		if len(byStation[i]) == 0 {
			continue
		}
		terms := make([]lp.Term, 0, len(byStation[i]))
		for _, idx := range byStation[i] {
			r := reqs[vars[idx].req]
			terms = append(terms, lp.Term{Var: vars[idx].v, Coef: n.RateToMHz(r.ExpectedRate())})
		}
		if _, err := prob.AddConstraint(fmt.Sprintf("cap[%d]", i), lp.LE, n.Capacity(i), terms...); err != nil {
			return nil, err
		}
	}

	gap := opts.RelativeGap
	if gap == 0 {
		gap = 1e-4
	}
	sol, err := prob.SolveIntegerWithOptions(lp.IntegerOptions{MaxNodes: exactMaxNodes, RelativeGap: gap})
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.StatusOptimal && sol.Status != lp.StatusIterLimit {
		return nil, fmt.Errorf("%w: ILP status %v", ErrLPFailed, sol.Status)
	}
	if sol.Status == lp.StatusIterLimit && sol.X == nil {
		return nil, fmt.Errorf("%w: node budget exhausted without incumbent", ErrLPFailed)
	}
	res.ExpectedLPBound = sol.Objective

	// Realize the plan: rates reveal after scheduling; like Appro, the
	// exact algorithm monitors realized demand and evicts requests that
	// no longer fit before they can overload a station.
	used := make([]float64, n.NumStations())
	for _, xv := range vars {
		if sol.Value(xv.v) < 0.5 {
			continue
		}
		r := reqs[xv.req]
		d := &res.Decisions[xv.req]
		d.Admitted = true
		d.Station = xv.station
		d.Slot = 1
		d.TaskStations = consolidated(r, xv.station)
		d.LatencyMS = latencyOf(n, r, d.TaskStations, 0, mec.DefaultSlotLengthMS)
		out := r.Realize(rng)
		demand := n.RequestMHz(r, out.Rate)
		if fitsWithin(used[xv.station], demand, n.Capacity(xv.station)) {
			used[xv.station] += demand
		} else {
			d.Evicted = true
		}
	}
	Evaluate(n, reqs, res, rng)
	res.Runtime = time.Since(start)
	return res, nil
}
