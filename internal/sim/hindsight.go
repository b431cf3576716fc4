package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"mecoffload/internal/core"
	"mecoffload/internal/lp"
	"mecoffload/internal/mec"
)

// HindsightBound computes an upper bound on the reward any online policy
// could have earned on a realized arrival stream, via the time-expanded
// LP relaxation of the full-information scheduling problem:
//
//	max  sum_{j,i,s} x_jis * RD_j(realized)
//	s.t. sum_{i,s} x_jis <= 1
//	     sum_{(j,i,s): s <= t < s+hold_j} x_jis * demand_j <= C(bs_i)  for all i, t
//	     x_jis = 0 when starting r_j at slot s on station i misses its
//	             deadline (s >= arrival; waiting (s - a_j) counts)
//	     x_jis >= 0.
//
// Variables are (request, station, start-slot) triples; the deadline
// budget keeps the start-slot fan-out small (a request can wait only a
// few slots before no placement is feasible). At horizon 1 over a
// workload arriving at slot 0 it is the offline assignment LP, which the
// exact-gap experiment (E11) solves on 4 stations and at most 24
// requests. internal/lp's sparse revised simplex, which keeps its basis
// inverse as a product-form eta file, handles the resulting row counts
// for moderate instances — use this as a test/validation oracle, not
// inside large sweeps.
func HindsightBound(n *mec.Network, reqs []*mec.Request, horizon int, rng *rand.Rand, slotLenMS float64) (float64, error) {
	if n == nil {
		return 0, core.ErrNilNetwork
	}
	if len(reqs) == 0 {
		return 0, core.ErrNoRequests
	}
	if horizon <= 0 {
		return 0, fmt.Errorf("%w: %d", ErrBadHorizon, horizon)
	}
	if slotLenMS == 0 {
		slotLenMS = mec.DefaultSlotLengthMS
	}

	prob := lp.NewProblem(lp.Maximize)
	type slotKey struct{ station, slot int }
	coverage := map[slotKey][]lp.Term{}

	for j, r := range reqs {
		out := r.Realize(rng)
		demand := n.RateToMHz(out.Rate)
		var assign []lp.Term
		for i := 0; i < n.NumStations(); i++ {
			for s := r.ArrivalSlot; s < horizon; s++ {
				if !r.DelayFeasible(n, i, s-r.ArrivalSlot, slotLenMS) {
					break // waiting only grows with s
				}
				v := prob.AddVariable(fmt.Sprintf("x[%d,%d,%d]", j, i, s), out.Reward)
				assign = append(assign, lp.Term{Var: v, Coef: 1})
				end := s + r.HoldSlots()
				if end > horizon {
					end = horizon
				}
				for t := s; t < end; t++ {
					k := slotKey{i, t}
					coverage[k] = append(coverage[k], lp.Term{Var: v, Coef: demand})
				}
			}
		}
		if len(assign) == 0 {
			continue
		}
		if _, err := prob.AddConstraint(fmt.Sprintf("assign[%d]", j), lp.LE, 1, assign...); err != nil {
			return 0, err
		}
	}
	if prob.NumVars() == 0 {
		return 0, nil
	}
	// Deterministic row order keeps solves reproducible across runs.
	keys := make([]slotKey, 0, len(coverage))
	for k := range coverage {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].station != keys[b].station {
			return keys[a].station < keys[b].station
		}
		return keys[a].slot < keys[b].slot
	})
	for _, k := range keys {
		if _, err := prob.AddConstraint(fmt.Sprintf("cap[%d,%d]", k.station, k.slot), lp.LE,
			n.Capacity(k.station), coverage[k]...); err != nil {
			return 0, err
		}
	}
	sol, err := prob.Solve()
	if err != nil {
		return 0, err
	}
	if sol.Status != lp.StatusOptimal {
		return 0, fmt.Errorf("%w: hindsight LP %v", core.ErrLPFailed, sol.Status)
	}
	return sol.Objective, nil
}
