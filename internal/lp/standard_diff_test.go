package lp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
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

// TestStandardMatchesProblem writes 400 seeded random "max c'x, rows <=
// b >= 0" problems through Standard and builds them through AddConstraint
// side by side — zero coefficients among the terms, empty rows, rows the
// writer refuses — and requires the written standard form to equal the
// problem's lowering bit for bit, the cold solves to agree in status,
// pivots, objective and x bit for bit, and the written LP's basis to seed
// the problem's solve as the problem's own basis does. One Standard serves
// every round while the shape grows and shrinks, so stale storage would
// show.
func TestStandardMatchesProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	var w Standard
	var x []float64
	refused, solved := 0, 0
	for round := 0; round < 400; round++ {
		w.Reset()
		p := NewProblem(Maximize)
		n, m := 1+rng.Intn(14), rng.Intn(12)
		for j := 0; j < n; j++ {
			obj := float64(rng.Intn(11)-3) / 2
			p.AddVariable("", obj)
			if v := w.AddVariable(obj); int(v) != j {
				t.Fatalf("round %d: variable %d got handle %d", round, j, v)
			}
		}
		for i := 0; i < m; i++ {
			var terms []Term
			for j := 0; j < n; j++ {
				if rng.Intn(3) == 0 {
					coef := float64(rng.Intn(9)-2) / 4 // zeros among them
					terms = append(terms, Term{Var(j), coef})
					w.Add(Var(j), coef)
				}
			}
			rhs := float64(rng.Intn(15))
			switch rng.Intn(8) {
			case 0:
				w.Add(Var(n-1), math.NaN())
			case 1:
				w.Add(Var(n), 1) // out of range
			case 2:
				rhs = -1
			}
			row, err := w.EndRow(rhs)
			if err != nil {
				if !errors.Is(err, ErrBadCoef) && !errors.Is(err, ErrBadVariable) {
					t.Fatalf("round %d row %d: %v, want ErrBadCoef or ErrBadVariable", round, i, err)
				}
				refused++
				continue
			}
			if row != p.NumConstraints() {
				t.Fatalf("round %d: row index %d, want %d", round, row, p.NumConstraints())
			}
			mustConstraint(t, p, "", LE, rhs, terms...)
		}
		if rng.Intn(4) > 0 { // bound every variable, so most rounds solve
			var terms []Term
			for j := 0; j < n; j++ {
				terms = append(terms, Term{Var(j), 1})
				w.Add(Var(j), 1)
			}
			if _, err := w.EndRow(20); err != nil {
				t.Fatal(err)
			}
			mustConstraint(t, p, "", LE, 20, terms...)
		}
		if w.NumVars() != p.NumVars() || w.NumRows() != p.NumConstraints() {
			t.Fatalf("round %d: %dx%d written, want %dx%d", round, w.NumRows(), w.NumVars(), p.NumConstraints(), p.NumVars())
		}
		if d := w.Diff(p); d != "" {
			t.Fatalf("round %d (%d x %d): %s", round, m, n, d)
		}
		if dw, dp := w.Dense(), p.Dense(); !reflect.DeepEqual(dw, dp) {
			t.Fatalf("round %d: Dense %+v, problem's %+v", round, dw, dp)
		}
		want, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		x = growFloats(x, n)
		status, obj, err := w.Solve(x, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if status != want.Status || w.Iterations() != want.Iterations {
			t.Fatalf("round %d: %v after %d pivots, want %v after %d", round, status, w.Iterations(), want.Status, want.Iterations)
		}
		if status != StatusOptimal {
			continue
		}
		solved++
		if math.Float64bits(obj) != math.Float64bits(want.Objective) {
			t.Fatalf("round %d: objective %v, want %v", round, obj, want.Objective)
		}
		for j := range want.X {
			if math.Float64bits(x[j]) != math.Float64bits(want.X[j]) {
				t.Fatalf("round %d: x[%d] = %v, want %v", round, j, x[j], want.X[j])
			}
		}
		if b := w.Basis(); !reflect.DeepEqual(b, want.Basis) {
			t.Fatalf("round %d: basis %+v, want %+v", round, b, want.Basis)
		}
		warm, err := p.SolveWithOptions(SolveOptions{WarmStart: w.Basis()})
		if err != nil || warm.Status != StatusOptimal || warm.Iterations != 0 {
			t.Fatalf("round %d: seeded with its own optimal basis: %v after %d pivots (%v)", round, warm.Status, warm.Iterations, err)
		}
	}
	if refused < 200 || solved < 200 {
		t.Fatalf("%d rows refused, %d problems solved: the generator lost its coverage", refused, solved)
	}
}

// TestStandardRefusals: the writer refuses what AddConstraint refuses — a
// NaN or infinite coefficient, a non-finite right-hand side — and what
// its form rules out — a negative right-hand side, a variable out of
// range or out of order, a variable added after the first row — and a
// refused row leaves the LP as it was.
func TestStandardRefusals(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(w *Standard)
		rhs   float64
		want  error
	}{
		{"NaN coefficient", func(w *Standard) { w.Add(0, math.NaN()) }, 1, ErrBadCoef},
		{"infinite coefficient", func(w *Standard) { w.Add(1, math.Inf(-1)) }, 1, ErrBadCoef},
		{"NaN rhs", func(w *Standard) { w.Add(0, 1) }, math.NaN(), ErrBadCoef},
		{"infinite rhs", func(w *Standard) { w.Add(0, 1) }, math.Inf(1), ErrBadCoef},
		{"negative rhs", func(w *Standard) { w.Add(0, 1) }, -2, ErrBadCoef},
		{"variable out of range", func(w *Standard) { w.Add(2, 1) }, 1, ErrBadVariable},
		{"variables out of order", func(w *Standard) { w.Add(1, 1); w.Add(0, 1) }, 1, ErrBadVariable},
		{"variable twice", func(w *Standard) { w.Add(1, 1); w.Add(1, 1) }, 1, ErrBadVariable},
	} {
		var w Standard
		w.AddVariable(3)
		w.AddVariable(2)
		w.Add(0, 1)
		w.Add(1, 1)
		if _, err := w.EndRow(4); err != nil {
			t.Fatal(err)
		}
		tc.write(&w)
		if _, err := w.EndRow(tc.rhs); !errors.Is(err, tc.want) {
			t.Fatalf("%s: EndRow = %v, want %v", tc.name, err, tc.want)
		}
		p := NewProblem(Maximize)
		x0, x1 := p.AddVariable("", 3), p.AddVariable("", 2)
		mustConstraint(t, p, "", LE, 4, Term{x0, 1}, Term{x1, 1})
		if d := w.Diff(p); d != "" {
			t.Fatalf("%s: the refused row stayed: %s", tc.name, d)
		}
		x := make([]float64, 2)
		if status, obj, err := w.Solve(x, SolveOptions{}); err != nil || status != StatusOptimal || obj != 12 {
			t.Fatalf("%s: after the refusal the LP solves to %v %v (%v), want optimal 12", tc.name, status, obj, err)
		}
	}
	var w Standard
	w.AddVariable(1)
	w.Add(0, 1)
	if _, err := w.EndRow(1); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AddVariable after the first row did not panic")
		}
	}()
	w.AddVariable(1)
}
