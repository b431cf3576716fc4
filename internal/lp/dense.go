package lp

// Dense is a dense snapshot of a problem: the full constraint matrix with
// one row per constraint and one column per variable. The production
// solver never materializes this form (it works on the sparse columns);
// it exists for reference solvers and debugging — internal/oracle's
// textbook tableau simplex consumes it to cross-check the sparse
// revised-simplex path on the exact same problem.
type Dense struct {
	Sense Sense
	// Obj[v] is the objective coefficient of variable v.
	Obj []float64
	// A[r][v] is the coefficient of variable v in constraint r.
	A [][]float64
	// Ops[r] and RHS[r] are constraint r's comparison and right-hand side.
	Ops []Op
	RHS []float64
	// Integer[v] reports whether variable v was added as integer.
	Integer []bool
	// Names and RowNames carry the builder-side identifiers, for error
	// messages that point at model rows rather than matrix indices.
	Names    []string
	RowNames []string
}

// Dense materializes the problem's full constraint matrix. The snapshot is
// independent of the receiver: mutating one does not affect the other.
func (p *Problem) Dense() *Dense {
	d := &Dense{
		Sense:    p.sense,
		Obj:      make([]float64, len(p.cols)),
		A:        make([][]float64, len(p.rows)),
		Ops:      make([]Op, len(p.rows)),
		RHS:      make([]float64, len(p.rows)),
		Integer:  make([]bool, len(p.cols)),
		Names:    make([]string, len(p.cols)),
		RowNames: make([]string, len(p.rows)),
	}
	for r := range p.rows {
		d.A[r] = make([]float64, len(p.cols))
		d.Ops[r] = p.rows[r].op
		d.RHS[r] = p.rows[r].rhs
		d.RowNames[r] = p.rows[r].name
		cols, vals := p.rowEntries(r)
		for k, v := range cols {
			d.A[r][v] = vals[k]
		}
	}
	for v := range p.cols {
		c := &p.cols[v]
		d.Obj[v] = c.obj
		d.Integer[v] = c.integer
		d.Names[v] = c.name
	}
	return d
}
