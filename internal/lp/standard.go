package lp

import (
	"fmt"
	"math"
	"slices"
)

// The standard-form writer. A problem reaches the simplex one way: its
// columns are appended (addCol), then its rows, each as its structural
// entries in ascending column order (entry) closed by its operator and
// right-hand side (endRow), and finish derives the rest. Problem.toStandard
// lowers a built Problem through it; Standard writes an LP of the form
// the per-slot relaxations have straight into it, with no Problem in
// between.

// begin empties sf for writing, keeping its storage.
func (sf *standardForm) begin() {
	sf.m, sf.n, sf.nSlack, sf.nArt = 0, 0, 0, 0
	sf.artStart = 0
	sf.c, sf.colRow = sf.c[:0], sf.colRow[:0]
	sf.b, sf.flipped = sf.b[:0], sf.flipped[:0]
	sf.slackCol, sf.basis0 = sf.slackCol[:0], sf.basis0[:0]
	sf.at.ptr = append(sf.at.ptr[:0], 0)
	sf.at.ci, sf.at.vx = sf.at.ci[:0], sf.at.vx[:0]
}

// open returns where the open row's entries start, beginning a zero-value
// form first.
func (sf *standardForm) open() int {
	if len(sf.at.ptr) == 0 {
		sf.begin()
	}
	return sf.at.ptr[sf.m]
}

// addCol appends a structural column with standard-form (minimized) cost
// c. Every column comes before the first row.
func (sf *standardForm) addCol(c float64) {
	sf.c = append(sf.c, c)
	sf.colRow = append(sf.colRow, -1)
	sf.n++
}

// entry appends coefficient v of column j to the open row. Columns must
// ascend within a row, and v must be nonzero.
func (sf *standardForm) entry(j int, v float64) {
	sf.at.ci = append(sf.at.ci, j)
	sf.at.vx = append(sf.at.vx, v)
}

// endRow closes the open row as "entries op rhs". A negative rhs is
// negated with the row's entries and its operator mirrored, so b >= 0.
// Then the row's slack (op <=) or surplus (op >=) is appended, numbered
// after the structural columns in row order, and, when the row's slack
// cannot start basic, its artificial, numbered from sf.artStart in row
// order: a problem with >= or = rows sets artStart to n plus its count of
// inequality rows before writing its first row.
func (sf *standardForm) endRow(op Op, rhs float64) {
	at := &sf.at
	i := sf.m
	neg := rhs < 0
	if neg {
		rhs = -rhs
		for k := at.ptr[i]; k < len(at.vx); k++ {
			at.vx[k] = -at.vx[k]
		}
		switch op {
		case LE:
			op = GE
		case GE:
			op = LE
		}
	}
	sf.b = append(sf.b, rhs)
	sf.flipped = append(sf.flipped, neg)
	slack := -1
	if op != EQ {
		sgn := 1.0
		if op == GE {
			sgn = -1
		}
		slack = sf.n + sf.nSlack
		sf.nSlack++
		sf.entry(slack, sgn)
	}
	sf.slackCol = append(sf.slackCol, slack)
	if op == LE {
		sf.basis0 = append(sf.basis0, slack)
	} else {
		art := sf.artStart + sf.nArt
		sf.nArt++
		sf.entry(art, 1)
		sf.basis0 = append(sf.basis0, art)
	}
	at.ptr = append(at.ptr, len(at.ci))
	sf.m++
}

// finish completes a written standard form: zero costs and row labels for
// the slack and artificial columns, and the column-wise matrix the simplex
// prices from, one transpose of the rows.
func (sf *standardForm) finish() {
	sf.artStart = sf.n + sf.nSlack
	sf.nTotal = sf.artStart + sf.nArt
	grow := sf.nTotal - sf.n
	sf.c = slices.Grow(sf.c[:sf.n], grow)[:sf.nTotal]
	clear(sf.c[sf.n:])
	sf.colRow = slices.Grow(sf.colRow[:sf.n], grow)[:sf.nTotal]
	for i, j := range sf.slackCol {
		if j >= 0 {
			sf.colRow[j] = i
		}
		if k := sf.basis0[i]; k >= sf.artStart {
			sf.colRow[k] = i
		}
	}
	if sf.a == nil {
		sf.a = &csc{}
	}
	sf.a.fromRows(&sf.at, sf.nTotal)
}

// toStandard lowers the builder problem into sf through the writer,
// reusing whatever storage sf already carries (it may be a recycled
// scratch or a zero value). Maximization is handled by negating the
// objective. Each row's entries are copied from the problem's row-wise
// matrix as they are stored, columns ascending.
func (p *Problem) toStandard(sf *standardForm) *standardForm {
	sf.begin()
	sign := 1.0
	if p.sense == Maximize {
		sign = -1
	}
	for j := range p.cols {
		sf.addCol(sign * p.cols[j].obj)
	}
	nSlack := 0
	for i := range p.rows {
		if p.rows[i].op != EQ {
			nSlack++
		}
	}
	sf.artStart = len(p.cols) + nSlack
	for i := range p.rows {
		cols, vals := p.rowEntries(i)
		sf.at.ci = append(sf.at.ci, cols...)
		sf.at.vx = append(sf.at.vx, vals...)
		sf.endRow(p.rows[i].op, p.rows[i].rhs)
	}
	sf.finish()
	return sf
}

// Standard is a linear program of the form
//
//	max c'x   subject to   a_i'x <= b_i  (b_i >= 0),   x >= 0,
//
// written straight into the simplex's standard form: each row is its
// structural entries, columns ascending, then its slack, which starts
// basic, so a solve needs no phase 1. It is the builder of an LP that is
// rebuilt and solved again and again (the per-slot LP-PT components): no
// Problem in between, no per-row validation pass, sort or copy, and a
// solve that allocates nothing once its storage has seen the largest
// shape. A Standard is reused through Reset; it is not safe for
// concurrent use, and its zero value is an empty LP.
type Standard struct {
	sc solveScratch
	// last is the open row's last column (-1 while it has none).
	last int
	// err is the open row's first invalid entry, reported by EndRow.
	err error
}

// Reset empties the LP for rebuilding, keeping its storage.
func (w *Standard) Reset() {
	w.sc.sf.begin()
	w.last, w.err = -1, nil
}

// NumVars returns the number of variables added so far.
func (w *Standard) NumVars() int { return w.sc.sf.n }

// NumRows returns the number of rows written so far.
func (w *Standard) NumRows() int { return w.sc.sf.m }

// AddVariable adds a variable x >= 0 with objective coefficient obj and
// returns its handle. Every variable must be added before the first row:
// a later one panics, since the slack columns already follow the
// structural ones.
func (w *Standard) AddVariable(obj float64) Var {
	sf := &w.sc.sf
	if len(sf.at.ptr) == 0 {
		w.Reset() // the zero value
	} else if sf.m > 0 {
		panic("lp: Standard.AddVariable after the first row")
	}
	sf.addCol(-obj)
	return Var(sf.n - 1)
}

// Add appends the term coef*v to the open row. The row's variables must
// ascend. A zero coefficient adds nothing; a non-finite one, or a
// variable out of range or out of order, makes EndRow refuse the row.
func (w *Standard) Add(v Var, coef float64) {
	if coef == 0 {
		return
	}
	j := int(v)
	// coef-coef is NaN exactly when coef is NaN or infinite.
	if j <= w.last || j >= w.sc.sf.n || coef-coef != 0 {
		w.refuse(v, coef)
	}
	w.last = j
	w.sc.sf.entry(j, coef)
}

// refuse records why the open row cannot be written, unless an earlier
// term already did.
func (w *Standard) refuse(v Var, coef float64) {
	switch {
	case w.err != nil:
	case int(v) <= w.last || int(v) >= w.sc.sf.n:
		w.err = fmt.Errorf("%w: %d", ErrBadVariable, v)
	default:
		w.err = fmt.Errorf("%w: %v on var %d", ErrBadCoef, coef, v)
	}
}

// EndRow closes the open row as "terms <= rhs" and returns its index. A
// row with an invalid term, or with a right-hand side that is negative or
// not finite, is refused: it is dropped, the LP stays as it was, and the
// error wraps ErrBadVariable or ErrBadCoef.
func (w *Standard) EndRow(rhs float64) (int, error) {
	sf := &w.sc.sf
	start := sf.open()
	w.last = -1
	if w.err == nil && (rhs < 0 || math.IsNaN(rhs) || math.IsInf(rhs, 0)) {
		w.err = fmt.Errorf("%w: rhs %v", ErrBadCoef, rhs)
	}
	if err := w.err; err != nil {
		w.err = nil
		sf.at.ci, sf.at.vx = sf.at.ci[:start], sf.at.vx[:start]
		return 0, err
	}
	sf.endRow(LE, rhs)
	return sf.m - 1, nil
}

// Solve optimizes the LP, cold or from opts.WarmStart, and on
// StatusOptimal writes each variable's value into x, which must hold
// NumVars entries, and returns the objective. Any other status leaves x
// as it was; infeasibility cannot happen (x = 0 is feasible). An open row
// is discarded.
func (w *Standard) Solve(x []float64, opts SolveOptions) (Status, float64, error) {
	sf := &w.sc.sf
	if sf.n == 0 {
		return 0, 0, ErrNoVariables
	}
	if len(x) < sf.n {
		return 0, 0, fmt.Errorf("lp: x holds %d values for %d variables", len(x), sf.n)
	}
	w.last, w.err = -1, nil
	start := sf.open()
	sf.at.ci, sf.at.vx = sf.at.ci[:start], sf.at.vx[:start]
	sf.finish()
	status := w.sc.simplex(opts)
	if status != StatusOptimal {
		return status, 0, nil
	}
	return status, -w.sc.primal(x[:sf.n]), nil
}

// Iterations returns the pivots of the last Solve, over both phases.
func (w *Standard) Iterations() int { return w.sc.st.iters }

// Basis captures the optimal basis of the last Solve, by position, for a
// later solve's SolveOptions.WarmStart. It allocates the handle, so a
// caller that never warm-starts never pays for one. Only valid after a
// Solve that returned StatusOptimal and before the next Reset.
func (w *Standard) Basis() *Basis {
	return captureBasis(&w.sc.sf, w.sc.st.basis)
}

// Dense materializes the LP as a Problem's Dense does: its objective,
// every row with its <= operator and right-hand side, and empty names.
func (w *Standard) Dense() *Dense {
	sf := &w.sc.sf
	d := &Dense{
		Sense:    Maximize,
		Obj:      make([]float64, sf.n),
		A:        make([][]float64, sf.m),
		Ops:      make([]Op, sf.m),
		RHS:      make([]float64, sf.m),
		Integer:  make([]bool, sf.n),
		Names:    make([]string, sf.n),
		RowNames: make([]string, sf.m),
	}
	for j := range d.Obj {
		d.Obj[j] = -sf.c[j]
	}
	for i := range d.A {
		d.A[i] = make([]float64, sf.n)
		d.Ops[i], d.RHS[i] = LE, sf.b[i]
		for k := sf.at.ptr[i]; k < sf.at.ptr[i+1]; k++ {
			if j := sf.at.ci[k]; j < sf.n {
				d.A[i][j] = sf.at.vx[k]
			}
		}
	}
	return d
}

// Diff compares the standard form w holds with the one p lowers to, field
// for field and floats by their bits — costs, right-hand sides, both
// copies of the matrix, the slack columns and the starting basis — and
// describes the first difference, or returns "" when they agree. It
// exists for differential tests of a builder that writes a Standard
// against the same LP built through AddConstraint.
func (w *Standard) Diff(p *Problem) string {
	var want standardForm
	got := &w.sc.sf
	start := got.open()
	got.at.ci, got.at.vx = got.at.ci[:start], got.at.vx[:start]
	got.finish()
	return sameStandardForm(got, p.toStandard(&want))
}

// sameStandardForm reports the first field in which two standard forms
// differ, floats compared by their bits ("" when they agree).
func sameStandardForm(got, want *standardForm) string {
	ints := func(name string, g, w []int) string {
		if len(g) != len(w) {
			return fmt.Sprintf("%s: length %d, want %d", name, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				return fmt.Sprintf("%s[%d] = %d, want %d", name, i, g[i], w[i])
			}
		}
		return ""
	}
	floats := func(name string, g, w []float64) string {
		if len(g) != len(w) {
			return fmt.Sprintf("%s: length %d, want %d", name, len(g), len(w))
		}
		for i := range g {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				return fmt.Sprintf("%s[%d] = %v, want %v", name, i, g[i], w[i])
			}
		}
		return ""
	}
	if got.m != want.m || got.n != want.n || got.nTotal != want.nTotal || got.artStart != want.artStart {
		return fmt.Sprintf("shape m=%d n=%d nTotal=%d artStart=%d, want %d %d %d %d",
			got.m, got.n, got.nTotal, got.artStart, want.m, want.n, want.nTotal, want.artStart)
	}
	if !slices.Equal(got.flipped, want.flipped) {
		return fmt.Sprintf("flipped = %v, want %v", got.flipped, want.flipped)
	}
	for _, d := range []string{
		ints("a.ptr", got.a.ptr, want.a.ptr),
		ints("a.ri", got.a.ri, want.a.ri),
		floats("a.vx", got.a.vx, want.a.vx),
		ints("at.ptr", got.at.ptr, want.at.ptr),
		ints("at.ci", got.at.ci, want.at.ci),
		floats("at.vx", got.at.vx, want.at.vx),
		floats("c", got.c, want.c),
		floats("b", got.b, want.b),
		ints("basis0", got.basis0, want.basis0),
		ints("slackCol", got.slackCol, want.slackCol),
		ints("colRow", got.colRow, want.colRow),
	} {
		if d != "" {
			return d
		}
	}
	return ""
}
