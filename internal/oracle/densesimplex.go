package oracle

import (
	"fmt"

	"mecoffload/internal/lp"
)

// DenseSolution is the outcome of the reference simplex.
type DenseSolution struct {
	Status    lp.Status
	Objective float64
	// X holds the structural variable values (same indexing as the
	// Dense snapshot's columns).
	X []float64
	// Iterations counts simplex pivots across both phases.
	Iterations int
}

// pivotEps is the magnitude below which a tableau entry is treated as
// zero during pivoting.
const pivotEps = 1e-9

// feasEps bounds the phase-1 objective of a feasible problem.
const feasEps = 1e-6

// SolveDense solves the snapshot with a textbook two-phase dense tableau
// simplex under Bland's rule. It is deliberately the opposite of the
// production solver — a dense tableau instead of a sparse revised simplex
// with an eta file, Bland's rule throughout instead of the most negative
// reduced cost, no warm starts — so the two share no code paths and a bug
// in one cannot hide in the other. Bland's rule guarantees termination
// without perturbation; maxIter (<= 0 selects 50000) is a safety net
// that yields StatusIterLimit. Integer markers in the snapshot are
// ignored: this is the relaxation, matching what Problem.Solve computes.
func SolveDense(d *lp.Dense, maxIter int) (*DenseSolution, error) {
	if d == nil {
		return nil, fmt.Errorf("oracle: nil dense problem")
	}
	if maxIter <= 0 {
		maxIter = 50000
	}
	m, nv := len(d.A), len(d.Obj)
	if nv == 0 {
		return &DenseSolution{Status: lp.StatusOptimal}, nil
	}

	// Normalize every row to a non-negative right-hand side.
	type nrow struct {
		a   []float64
		op  lp.Op
		rhs float64
	}
	rows := make([]nrow, m)
	for r := 0; r < m; r++ {
		a := append([]float64(nil), d.A[r]...)
		op, rhs := d.Ops[r], d.RHS[r]
		if rhs < 0 {
			for j := range a {
				a[j] = -a[j]
			}
			rhs = -rhs
			switch op {
			case lp.LE:
				op = lp.GE
			case lp.GE:
				op = lp.LE
			}
		}
		rows[r] = nrow{a: a, op: op, rhs: rhs}
	}

	// Column layout: structural | slack+surplus | artificial | rhs.
	nSlack, nArt := 0, 0
	for _, r := range rows {
		if r.op != lp.EQ {
			nSlack++
		}
		if r.op != lp.LE {
			nArt++
		}
	}
	total := nv + nSlack + nArt
	artStart := nv + nSlack
	tab := make([][]float64, m)
	basis := make([]int, m)
	si, ai := nv, artStart
	for r := 0; r < m; r++ {
		row := make([]float64, total+1)
		copy(row, rows[r].a)
		row[total] = rows[r].rhs
		switch rows[r].op {
		case lp.LE:
			row[si] = 1
			basis[r] = si
			si++
		case lp.GE:
			row[si] = -1
			si++
			row[ai] = 1
			basis[r] = ai
			ai++
		default: // EQ
			row[ai] = 1
			basis[r] = ai
			ai++
		}
		tab[r] = row
	}

	iters := 0
	sol := &DenseSolution{}

	if nArt > 0 {
		// Phase 1: minimize the artificial sum. The cost row starts as
		// the artificial indicator and is reduced against the (artificial)
		// starting basis.
		cost := make([]float64, total+1)
		for j := artStart; j < total; j++ {
			cost[j] = 1
		}
		for r := 0; r < m; r++ {
			if basis[r] >= artStart {
				for j := 0; j <= total; j++ {
					cost[j] -= tab[r][j]
				}
			}
		}
		status := pivotLoop(tab, basis, cost, total, artStart, maxIter, &iters)
		if status == lp.StatusIterLimit {
			sol.Status = lp.StatusIterLimit
			sol.Iterations = iters
			return sol, nil
		}
		if phase1 := -cost[total]; phase1 > feasEps {
			sol.Status = lp.StatusInfeasible
			sol.Iterations = iters
			return sol, nil
		}
		// Drive leftover artificials out of the basis where possible;
		// rows that offer no pivot are redundant and keep a basic
		// artificial frozen at zero (it can never re-enter).
		for r := 0; r < m; r++ {
			if basis[r] < artStart {
				continue
			}
			for j := 0; j < artStart; j++ {
				if tab[r][j] > pivotEps || tab[r][j] < -pivotEps {
					pivot(tab, basis, nil, total, r, j)
					break
				}
			}
		}
	}

	// Phase 2: the real objective, as a minimization.
	cost := make([]float64, total+1)
	for j := 0; j < nv; j++ {
		if d.Sense == lp.Maximize {
			cost[j] = -d.Obj[j]
		} else {
			cost[j] = d.Obj[j]
		}
	}
	for r := 0; r < m; r++ {
		if cb := cost[basis[r]]; cb != 0 {
			for j := 0; j <= total; j++ {
				cost[j] -= cb * tab[r][j]
			}
		}
	}
	status := pivotLoop(tab, basis, cost, total, artStart, maxIter, &iters)
	sol.Status = status
	sol.Iterations = iters
	if status != lp.StatusOptimal {
		return sol, nil
	}
	fmin := -cost[total]
	if d.Sense == lp.Maximize {
		sol.Objective = -fmin
	} else {
		sol.Objective = fmin
	}
	sol.X = make([]float64, nv)
	for r := 0; r < m; r++ {
		if basis[r] < nv {
			sol.X[basis[r]] = tab[r][total]
		}
	}
	return sol, nil
}

// pivotLoop runs Bland's-rule pivots until the cost row has no negative
// reduced cost (optimal), a column prices out with no positive entry
// (unbounded), or the iteration budget runs out. Artificial columns
// (index >= artStart) never enter.
func pivotLoop(tab [][]float64, basis []int, cost []float64, total, artStart, maxIter int, iters *int) lp.Status {
	m := len(tab)
	for {
		if *iters >= maxIter {
			return lp.StatusIterLimit
		}
		// Bland: entering column is the lowest index with negative
		// reduced cost.
		enter := -1
		for j := 0; j < artStart; j++ {
			if cost[j] < -pivotEps {
				enter = j
				break
			}
		}
		if enter < 0 {
			return lp.StatusOptimal
		}
		// Ratio test; Bland ties break on the smallest basis index.
		leave := -1
		bestRatio := 0.0
		for r := 0; r < m; r++ {
			if tab[r][enter] <= pivotEps {
				continue
			}
			ratio := tab[r][total] / tab[r][enter]
			if leave < 0 || ratio < bestRatio-pivotEps ||
				(ratio < bestRatio+pivotEps && basis[r] < basis[leave]) {
				leave = r
				bestRatio = ratio
			}
		}
		if leave < 0 {
			return lp.StatusUnbounded
		}
		pivot(tab, basis, cost, total, leave, enter)
		*iters++
	}
}

// pivot makes column enter basic in row leave, updating the cost row too
// when one is supplied.
func pivot(tab [][]float64, basis []int, cost []float64, total, leave, enter int) {
	pr := tab[leave]
	pv := pr[enter]
	for j := 0; j <= total; j++ {
		pr[j] /= pv
	}
	for r := range tab {
		if r == leave {
			continue
		}
		if f := tab[r][enter]; f > pivotEps || f < -pivotEps {
			row := tab[r]
			for j := 0; j <= total; j++ {
				row[j] -= f * pr[j]
			}
		}
	}
	if cost != nil {
		if f := cost[enter]; f > pivotEps || f < -pivotEps {
			for j := 0; j <= total; j++ {
				cost[j] -= f * pr[j]
			}
		}
	}
	basis[leave] = enter
}
