package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refProblem is the builder as it stored constraints before the matrix
// went row-wise: one entry list per column, a duplicate term accumulating
// into the column's last entry when that entry belongs to the row being
// added, and entries that sum to zero dropped afterwards.
type refProblem struct {
	sense Sense
	obj   []float64
	cols  [][]entry
	ops   []Op
	rhs   []float64
}

func (r *refProblem) addVariable(obj float64) {
	r.obj = append(r.obj, obj)
	r.cols = append(r.cols, nil)
}

func (r *refProblem) addConstraint(op Op, rhs float64, terms []Term) {
	row := len(r.ops)
	r.ops = append(r.ops, op)
	r.rhs = append(r.rhs, rhs)
	for _, t := range terms {
		es := r.cols[t.Var]
		if n := len(es); n > 0 && es[n-1].row == row {
			es[n-1].coef += t.Coef
			continue
		}
		r.cols[t.Var] = append(es, entry{row: row, coef: t.Coef})
	}
	for _, t := range terms {
		es := r.cols[t.Var]
		if n := len(es); n > 0 && es[n-1].row == row && es[n-1].coef == 0 {
			r.cols[t.Var] = es[:n-1]
		}
	}
}

// referenceToStandard is the column-wise conversion toStandard replaced:
// the structural columns streamed from the per-column entries, then one
// unit column per slack/surplus, then one per artificial, and the row-wise
// copy made by transposing the result.
func referenceToStandard(r *refProblem) *standardForm {
	m, n := len(r.ops), len(r.obj)
	sf := &standardForm{m: m, n: n, a: &csc{ptr: []int{0}}}
	sf.b = make([]float64, m)
	sf.flipped = make([]bool, m)
	ops := make([]Op, m)
	for i := range r.ops {
		rhs, op := r.rhs[i], r.ops[i]
		if rhs < 0 {
			rhs = -rhs
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
			sf.flipped[i] = true
		}
		sf.b[i] = rhs
		ops[i] = op
	}
	a := sf.a
	unit := func(row int, v float64) int {
		a.ri = append(a.ri, row)
		a.vx = append(a.vx, v)
		a.ptr = append(a.ptr, len(a.ri))
		sf.c = append(sf.c, 0)
		sf.colRow = append(sf.colRow, row)
		return len(a.ptr) - 2
	}
	sign := 1.0
	if r.sense == Maximize {
		sign = -1
	}
	for j := range r.cols {
		for _, e := range r.cols[j] {
			coef := e.coef
			if sf.flipped[e.row] {
				coef = -coef
			}
			a.ri = append(a.ri, e.row)
			a.vx = append(a.vx, coef)
		}
		a.ptr = append(a.ptr, len(a.ri))
		sf.c = append(sf.c, sign*r.obj[j])
		sf.colRow = append(sf.colRow, -1)
	}
	sf.slackCol = make([]int, m)
	sf.basis0 = make([]int, m)
	for i, op := range ops {
		sf.slackCol[i], sf.basis0[i] = -1, -1
		switch op {
		case LE:
			sf.slackCol[i] = unit(i, 1)
			sf.basis0[i] = sf.slackCol[i]
		case GE:
			sf.slackCol[i] = unit(i, -1)
		}
	}
	sf.artStart = len(a.ptr) - 1
	for i := range sf.basis0 {
		if sf.basis0[i] < 0 {
			sf.basis0[i] = unit(i, 1)
		}
	}
	sf.nTotal = len(a.ptr) - 1
	// The transpose: count each row, then fill each row from its end while
	// the columns are walked in descending order.
	at := &sf.at
	at.ptr = make([]int, m+1)
	for _, row := range a.ri {
		at.ptr[row+1]++
	}
	for i := 0; i < m; i++ {
		at.ptr[i+1] += at.ptr[i]
	}
	at.ci = make([]int, len(a.ri))
	at.vx = make([]float64, len(a.ri))
	for j := sf.nTotal - 1; j >= 0; j-- {
		for k := a.ptr[j+1] - 1; k >= a.ptr[j]; k-- {
			row := a.ri[k]
			at.ptr[row+1]--
			at.ci[at.ptr[row+1]] = j
			at.vx[at.ptr[row+1]] = a.vx[k]
		}
	}
	copy(at.ptr, at.ptr[1:])
	at.ptr[m] = len(a.ri)
	return sf
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
	if len(got.flipped) != len(want.flipped) {
		return fmt.Sprintf("flipped: length %d, want %d", len(got.flipped), len(want.flipped))
	}
	for i := range want.flipped {
		if got.flipped[i] != want.flipped[i] {
			return fmt.Sprintf("flipped[%d] = %v, want %v", i, got.flipped[i], want.flipped[i])
		}
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

// TestToStandardMatchesReference builds 400 seeded random problems into
// the row-wise builder and the column-wise reference side by side — terms
// out of column order, duplicates, pairs that cancel, zero coefficients,
// negative right-hand sides, all three operators — and requires toStandard
// to reproduce the reference's standard form field for field, bit for bit.
// One Problem (through Reset) and one scratch serve every round while the
// shape grows and shrinks, so stale storage would show.
func TestToStandardMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	p := NewProblem(Maximize)
	var sc standardForm
	var sorted, unsorted, cancelled int
	for round := 0; round < 400; round++ {
		sense := Maximize
		if rng.Intn(3) == 0 {
			sense = Minimize
		}
		p.Reset()
		p.sense = sense
		ref := &refProblem{sense: sense}
		n, m := 1+rng.Intn(14), rng.Intn(12)
		if round%9 == 0 {
			n, m = 1+rng.Intn(2), rng.Intn(3)
		}
		for j := 0; j < n; j++ {
			obj := float64(rng.Intn(11)-3) / 2
			p.AddVariable(fmt.Sprintf("x%d", j), obj)
			ref.addVariable(obj)
		}
		for i := 0; i < m; i++ {
			var terms []Term
			for k := rng.Intn(2 * n); k >= 0; k-- {
				coef := float64(rng.Intn(9)-2) / 4 // zeros among them
				terms = append(terms, Term{Var(rng.Intn(n)), coef})
			}
			if rng.Intn(3) == 0 { // a pair that cancels exactly
				v := Var(rng.Intn(n))
				terms = append(terms, Term{v, 0.1}, Term{Var(rng.Intn(n)), 3}, Term{v, -0.1})
				cancelled++
			}
			if rng.Intn(3) == 0 { // already in column order
				for a := 1; a < len(terms); a++ {
					for b := a; b > 0 && terms[b].Var < terms[b-1].Var; b-- {
						terms[b], terms[b-1] = terms[b-1], terms[b]
					}
				}
				sorted++
			} else {
				unsorted++
			}
			op := []Op{LE, GE, EQ}[rng.Intn(3)]
			rhs := float64(rng.Intn(21) - 7)
			mustConstraint(t, p, fmt.Sprintf("r%d", i), op, rhs, terms...)
			ref.addConstraint(op, rhs, terms)
		}
		got := p.toStandard(&sc)
		if d := sameStandardForm(got, referenceToStandard(ref)); d != "" {
			t.Fatalf("round %d (%d x %d): %s", round, m, n, d)
		}
	}
	if sorted < 100 || unsorted < 100 || cancelled < 100 {
		t.Fatalf("%d sorted, %d unsorted, %d cancelling rows: the generator lost its coverage", sorted, unsorted, cancelled)
	}
}
