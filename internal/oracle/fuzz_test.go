package oracle

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mecoffload/internal/lp"
)

// FuzzOracleLP fuzzes the sparse-vs-dense differential: any parseable LP
// within the screened size and magnitude envelope must drive both solvers
// to the same status and objective. The magnitude cap keeps the dense
// reference's absolute feasibility epsilon meaningful; size caps keep a
// single fuzz execution fast.
func FuzzOracleLP(f *testing.F) {
	seeds := []string{
		"max: 3 x + 2 y\nc1: x + y <= 4\nc2: x + 3 y <= 6\n",
		"min: x\nlo: x >= 5\n",
		"max: 13 a + 14 b + 12 c\nassign: a + b + c <= 1\ncap: 700 a + 800 b + 650 c <= 3200\n",
		"min: -x\nc: -x >= -3\n",
		"max: x + y\neq: x = 2\nc: y <= 1\n",
		"max: x\nhi: x <= 1\nlo: x >= 2\n",
		"max: x + y\nc: x - y <= 1\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	// One problem per sense, rebuilt in place for every case after the
	// first: the storage a case builds into is whatever the cases before it
	// left behind.
	reused := map[lp.Sense]*lp.Problem{}
	f.Fuzz(func(t *testing.T, src string) {
		pp, err := lp.Parse(strings.NewReader(src))
		if err != nil || pp.Problem == nil || pp.HasInteger {
			return
		}
		p := pp.Problem
		if p.NumVars() == 0 || p.NumVars() > 30 || p.NumConstraints() > 30 {
			return
		}
		d := p.Dense()
		for _, c := range d.Obj {
			if math.Abs(c) > 1e4 || math.IsNaN(c) {
				return
			}
		}
		for r := range d.A {
			if math.Abs(d.RHS[r]) > 1e4 || math.IsNaN(d.RHS[r]) {
				return
			}
			for _, c := range d.A[r] {
				if math.Abs(c) > 1e4 || math.IsNaN(c) {
					return
				}
			}
		}
		if err := DiffDense(p, 1e-4); err != nil {
			t.Fatal(err)
		}
		q := reused[d.Sense]
		if q == nil {
			q = lp.NewProblem(d.Sense)
			reused[d.Sense] = q
		}
		if err := rebuildDense(q, d); err != nil {
			t.Fatal(err)
		}
		if err := DiffDense(q, 1e-4); err != nil {
			t.Fatalf("rebuilt in a reused problem: %v", err)
		}
		if err := sameSolve(p, q); err != nil {
			t.Fatalf("rebuilt in a reused problem: %v", err)
		}
	})
}

// rebuildDense resets q and builds d's problem into it, zero coefficients
// included (AddConstraint drops them).
func rebuildDense(q *lp.Problem, d *lp.Dense) error {
	q.Reset()
	for v, c := range d.Obj {
		q.AddVariable(d.Names[v], c)
	}
	terms := make([]lp.Term, len(d.Obj))
	for r := range d.A {
		for v, c := range d.A[r] {
			terms[v] = lp.Term{Var: lp.Var(v), Coef: c}
		}
		if _, err := q.AddConstraint(d.RowNames[r], d.Ops[r], d.RHS[r], terms...); err != nil {
			return err
		}
	}
	return nil
}

// sameSolve requires two builds of one problem to solve identically: same
// status, pivot count, and bitwise the same objective, X and duals.
func sameSolve(p, q *lp.Problem) error {
	a, err := p.Solve()
	if err != nil {
		return err
	}
	b, err := q.Solve()
	if err != nil {
		return err
	}
	if a.Status != b.Status || a.Iterations != b.Iterations ||
		math.Float64bits(a.Objective) != math.Float64bits(b.Objective) {
		return fmt.Errorf("solve diverges: %v/%d/%v vs %v/%d/%v",
			a.Status, a.Iterations, a.Objective, b.Status, b.Iterations, b.Objective)
	}
	for _, pair := range [][2][]float64{{a.X, b.X}, {a.Dual, b.Dual}} {
		if len(pair[0]) != len(pair[1]) {
			return fmt.Errorf("solve diverges: %v vs %v", pair[0], pair[1])
		}
		for i := range pair[0] {
			if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
				return fmt.Errorf("solve diverges: %v vs %v", pair[0], pair[1])
			}
		}
	}
	return nil
}
