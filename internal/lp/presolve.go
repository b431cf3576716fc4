package lp

// Presolve: detect variables fixed to zero by singleton rows and solve a
// reduced problem without them. Branch and bound generates exactly this
// row shape in bulk (the down-branch "x <= 0" bound rows of 0/1
// programs), so eliminating the columns up front shrinks every node LP.

// detectFixedZero scans for singleton rows that pin a variable to zero:
//
//	a*x <= 0 with a > 0,   a*x >= 0 with a < 0,   a*x = 0 with a != 0,
//
// (x >= 0 supplies the other side). It returns the fixed mask and count.
func (p *Problem) detectFixedZero() ([]bool, int) {
	var fixed []bool
	n := 0
	for i := range p.rows {
		rhs, op := p.rows[i].rhs, p.rows[i].op
		cols, vals := p.rowEntries(i)
		// Only zero-rhs singleton rows can pin: the per-slot relaxations
		// have none, and pay one pass over the row headers.
		if len(cols) != 1 || rhs > feasTol || rhs < -feasTol {
			continue
		}
		pin := false
		switch coef := vals[0]; op {
		case LE:
			pin = coef > 0
		case GE:
			pin = coef < 0
		case EQ:
			pin = coef != 0
		}
		if !pin {
			continue
		}
		if fixed == nil {
			fixed = make([]bool, len(p.cols))
		}
		if !fixed[cols[0]] {
			fixed[cols[0]] = true
			n++
		}
	}
	return fixed, n
}

// solveReduced solves the problem without the fixed columns and expands
// the solution back to the original variable space. The reduced problem
// keeps every row in place — entries of fixed columns vanish (their value
// is zero) — so dual values map one to one.
func (p *Problem) solveReduced(fixed []bool, opts SolveOptions) (*Solution, error) {
	q := NewProblem(p.sense)
	remap := make([]int, len(p.cols)) // old -> new (valid where !fixed)
	for j := range p.cols {
		if fixed[j] {
			continue
		}
		remap[j] = len(q.cols)
		q.cols = append(q.cols, p.cols[j])
	}
	// The renumbering keeps column order, so each filtered row stays
	// ascending, distinct and free of zeros.
	for i := range p.rows {
		cols, vals := p.rowEntries(i)
		for k, j := range cols {
			if !fixed[j] {
				q.mat.ci = append(q.mat.ci, remap[j])
				q.mat.vx = append(q.mat.vx, vals[k])
			}
		}
		q.mat.ptr = append(q.mat.ptr, len(q.mat.ci))
	}
	q.rows = append(q.rows, p.rows...)
	if q.NumVars() == 0 {
		// Everything fixed at zero: feasibility reduces to checking the
		// constant rows, which the empty-variable solve cannot express;
		// check directly.
		for _, r := range p.rows {
			ok := true
			switch r.op {
			case LE:
				ok = r.rhs >= -feasTol
			case GE:
				ok = r.rhs <= feasTol
			case EQ:
				ok = r.rhs <= feasTol && r.rhs >= -feasTol
			}
			if !ok {
				return &Solution{Status: StatusInfeasible, Nodes: 1}, nil
			}
		}
		return &Solution{
			Status: StatusOptimal,
			X:      make([]float64, len(p.cols)),
			Dual:   make([]float64, len(p.rows)),
			Nodes:  1,
		}, nil
	}

	sol, err := q.solveDirect(opts)
	if err != nil {
		return nil, err
	}
	if sol.Status != StatusOptimal {
		return sol, nil
	}
	// Expand.
	x := make([]float64, len(p.cols))
	for j := range p.cols {
		if !fixed[j] {
			x[j] = sol.X[remap[j]]
		}
	}
	sol.X = x
	return sol, nil
}
