package lp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

const tol = 1e-6

func almostEq(a, b float64) bool { return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b)) }

func TestSolveSimpleMax(t *testing.T) {
	// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x, y >= 0. Optimum at
	// (4, 0) with objective 12.
	p := NewProblem(Maximize)
	x := p.AddVariable("x", 3)
	y := p.AddVariable("y", 2)
	mustConstraint(t, p, "c1", LE, 4, Term{x, 1}, Term{y, 1})
	mustConstraint(t, p, "c2", LE, 6, Term{x, 1}, Term{y, 3})
	sol := mustOptimal(t, p)
	if !almostEq(sol.Objective, 12) {
		t.Fatalf("objective = %v, want 12", sol.Objective)
	}
	if !almostEq(sol.Value(x), 4) || !almostEq(sol.Value(y), 0) {
		t.Fatalf("x=%v y=%v, want (4, 0)", sol.Value(x), sol.Value(y))
	}
}

func TestSolveSimpleMin(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 10, x <= 6. Optimum x=6, y=4 -> 24.
	p := NewProblem(Minimize)
	x := p.AddVariable("x", 2)
	y := p.AddVariable("y", 3)
	mustConstraint(t, p, "cover", GE, 10, Term{x, 1}, Term{y, 1})
	mustConstraint(t, p, "capx", LE, 6, Term{x, 1})
	sol := mustOptimal(t, p)
	if !almostEq(sol.Objective, 24) {
		t.Fatalf("objective = %v, want 24", sol.Objective)
	}
}

func TestSolveEquality(t *testing.T) {
	// max x + y s.t. x + 2y = 8, x <= 4. Optimum x=4, y=2 -> 6.
	p := NewProblem(Maximize)
	x := p.AddVariable("x", 1)
	y := p.AddVariable("y", 1)
	mustConstraint(t, p, "eq", EQ, 8, Term{x, 1}, Term{y, 2})
	mustConstraint(t, p, "cap", LE, 4, Term{x, 1})
	sol := mustOptimal(t, p)
	if !almostEq(sol.Objective, 6) {
		t.Fatalf("objective = %v, want 6", sol.Objective)
	}
	if !almostEq(sol.Value(x), 4) || !almostEq(sol.Value(y), 2) {
		t.Fatalf("got x=%v y=%v, want (4, 2)", sol.Value(x), sol.Value(y))
	}
}

func TestSolveNegativeRHS(t *testing.T) {
	// min x s.t. -x <= -5 (i.e. x >= 5).
	p := NewProblem(Minimize)
	x := p.AddVariable("x", 1)
	mustConstraint(t, p, "neg", LE, -5, Term{x, -1})
	sol := mustOptimal(t, p)
	if !almostEq(sol.Objective, 5) {
		t.Fatalf("objective = %v, want 5", sol.Objective)
	}
}

func TestSolveInfeasible(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVariable("x", 1)
	mustConstraint(t, p, "lo", GE, 5, Term{x, 1})
	mustConstraint(t, p, "hi", LE, 3, Term{x, 1})
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestSolveUnbounded(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVariable("x", 1)
	y := p.AddVariable("y", 0)
	mustConstraint(t, p, "c", LE, 4, Term{y, 1})
	_ = x
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusUnbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestSolveDegenerate(t *testing.T) {
	// A classic degenerate LP; must not cycle.
	p := NewProblem(Maximize)
	x1 := p.AddVariable("x1", 10)
	x2 := p.AddVariable("x2", -57)
	x3 := p.AddVariable("x3", -9)
	x4 := p.AddVariable("x4", -24)
	mustConstraint(t, p, "c1", LE, 0, Term{x1, 0.5}, Term{x2, -5.5}, Term{x3, -2.5}, Term{x4, 9})
	mustConstraint(t, p, "c2", LE, 0, Term{x1, 0.5}, Term{x2, -1.5}, Term{x3, -0.5}, Term{x4, 1})
	mustConstraint(t, p, "c3", LE, 1, Term{x1, 1})
	sol := mustOptimal(t, p)
	if !almostEq(sol.Objective, 1) {
		t.Fatalf("objective = %v, want 1", sol.Objective)
	}
}

func TestSolveNoVariables(t *testing.T) {
	p := NewProblem(Maximize)
	if _, err := p.Solve(); err == nil {
		t.Fatal("want error for empty problem")
	}
}

func TestConstraintValidation(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVariable("x", 1)
	if _, err := p.AddConstraint("bad-var", LE, 1, Term{Var(99), 1}); err == nil {
		t.Error("want error for unknown variable")
	}
	if _, err := p.AddConstraint("bad-rhs", LE, math.NaN(), Term{x, 1}); err == nil {
		t.Error("want error for NaN rhs")
	}
	if _, err := p.AddConstraint("bad-coef", LE, 1, Term{x, math.Inf(1)}); err == nil {
		t.Error("want error for infinite coefficient")
	}
	if p.NumConstraints() != 0 {
		t.Errorf("failed constraints must not persist, have %d", p.NumConstraints())
	}
}

func TestDuplicateTermsAccumulate(t *testing.T) {
	// max x s.t. x + x <= 4 => x = 2.
	p := NewProblem(Maximize)
	x := p.AddVariable("x", 1)
	mustConstraint(t, p, "dup", LE, 4, Term{x, 1}, Term{x, 1})
	sol := mustOptimal(t, p)
	if !almostEq(sol.Value(x), 2) {
		t.Fatalf("x = %v, want 2", sol.Value(x))
	}
}

// sameSolution reports the first field in which two solves differ, floats
// compared by their bits ("" when they agree on everything a caller can
// observe: status, objective, X, duals, pivot count and basis).
func sameSolution(a, b *Solution) string {
	bitsEq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	switch {
	case a.Status != b.Status:
		return fmt.Sprintf("status %v vs %v", a.Status, b.Status)
	case math.Float64bits(a.Objective) != math.Float64bits(b.Objective):
		return fmt.Sprintf("objective %v vs %v", a.Objective, b.Objective)
	case !bitsEq(a.X, b.X):
		return fmt.Sprintf("x %v vs %v", a.X, b.X)
	case !bitsEq(a.Dual, b.Dual):
		return fmt.Sprintf("dual %v vs %v", a.Dual, b.Dual)
	case a.Iterations != b.Iterations:
		return fmt.Sprintf("iterations %d vs %d", a.Iterations, b.Iterations)
	case !reflect.DeepEqual(a.Basis, b.Basis):
		return fmt.Sprintf("basis %+v vs %+v", a.Basis, b.Basis)
	}
	return ""
}

// entry is one nonzero of a column: its row and coefficient.
type entry struct {
	row  int
	coef float64
}

// columnEntries lists every column's nonzeros in ascending row order, read
// off the problem's row-wise matrix.
func columnEntries(p *Problem) [][]entry {
	out := make([][]entry, len(p.cols))
	for j := range out {
		out[j] = []entry{}
	}
	for i := range p.rows {
		cols, vals := p.rowEntries(i)
		for k, j := range cols {
			out[j] = append(out[j], entry{row: i, coef: vals[k]})
		}
	}
	return out
}

func TestDuplicateTermsNonAdjacent(t *testing.T) {
	// (x,1),(y,2),(x,3) is the row 4x + 2y <= 8: the second x term finds
	// x's entry although y's was added in between.
	p := NewProblem(Maximize)
	x := p.AddVariable("x", 3)
	y := p.AddVariable("y", 1)
	mustConstraint(t, p, "ux", LE, 5, Term{x, 1})
	mustConstraint(t, p, "dup", LE, 8, Term{x, 1}, Term{y, 2}, Term{x, 3})
	want := [][]entry{{{0, 1}, {1, 4}}, {{1, 2}}}
	if got := columnEntries(p); !reflect.DeepEqual(got, want) {
		t.Fatalf("entries %v, want %v", got, want)
	}
	sol := mustOptimal(t, p)
	if !almostEq(sol.Value(x), 2) || !almostEq(sol.Value(y), 0) {
		t.Fatalf("x=%v y=%v, want (2, 0)", sol.Value(x), sol.Value(y))
	}
}

func TestDuplicateTermsCancelAcrossAnotherVariable(t *testing.T) {
	// (x,1),(y,2),(x,-1): x's coefficients sum to zero, so x gets no entry
	// and the problem solves exactly as if the row had never named x.
	build := func(withX bool) (*Problem, Var) {
		p := NewProblem(Maximize)
		x := p.AddVariable("x", 1)
		y := p.AddVariable("y", 1)
		mustConstraint(t, p, "ux", LE, 3, Term{x, 1})
		if withX {
			mustConstraint(t, p, "c", LE, 4, Term{x, 1}, Term{y, 2}, Term{x, -1})
		} else {
			mustConstraint(t, p, "c", LE, 4, Term{y, 2})
		}
		return p, x
	}
	p, x := build(true)
	if got, want := columnEntries(p)[x], []entry{{0, 1}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("x entries %v, want %v", got, want)
	}
	q, _ := build(false)
	if diff := sameSolution(mustOptimal(t, p), mustOptimal(t, q)); diff != "" {
		t.Fatalf("cancelled x changed the solve: %s", diff)
	}
}

func TestInvalidTermLeavesProblemUntouched(t *testing.T) {
	// The bad term comes last, after terms that were fine on their own: none
	// of them may have left a trace.
	for _, tc := range []struct {
		name string
		bad  Term
		want error
	}{
		{"unknown variable", Term{Var(99), 1}, ErrBadVariable},
		{"negative variable", Term{Var(-1), 1}, ErrBadVariable},
		{"NaN", Term{0, math.NaN()}, ErrBadCoef},
		{"+Inf", Term{1, math.Inf(1)}, ErrBadCoef},
		{"-Inf", Term{1, math.Inf(-1)}, ErrBadCoef},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewProblem(Maximize)
			x := p.AddVariable("x", 2)
			y := p.AddVariable("y", 1)
			mustConstraint(t, p, "c1", LE, 4, Term{x, 1}, Term{y, 1})
			mustConstraint(t, p, "c2", LE, 6, Term{x, 1}, Term{y, 3})
			before, entries := mustOptimal(t, p), columnEntries(p)
			_, err := p.AddConstraint("bad", LE, 1, Term{x, 1}, Term{y, 2}, Term{x, 1}, tc.bad)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if p.NumConstraints() != 2 {
				t.Fatalf("%d constraints after the rejected one, want 2", p.NumConstraints())
			}
			if got := columnEntries(p); !reflect.DeepEqual(got, entries) {
				t.Fatalf("entries %v, want %v", got, entries)
			}
			if diff := sameSolution(mustOptimal(t, p), before); diff != "" {
				t.Fatalf("rejected constraint changed the solve: %s", diff)
			}
		})
	}
}

// TestResetRebuildMatchesFresh rebuilds one Problem through Reset for 200
// rounds of seeded random LPs whose shape grows and shrinks from round to
// round, with duplicate and cancelling terms, all three operators and
// integer markers, and requires each rebuild to be indistinguishable from
// a fresh NewProblem: the same dense snapshot, and bit for bit the same
// cold solve and the same solve warm-started from the previous round.
func TestResetRebuildMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	reused := NewProblem(Maximize)
	var prev *Basis
	statuses := map[Status]int{}
	for round := 0; round < 200; round++ {
		n, m := 1+rng.Intn(12), 1+rng.Intn(10)
		if round%7 == 0 {
			n, m = 1+rng.Intn(3), 1+rng.Intn(2) // shrink hard now and then
		}
		fresh := NewProblem(Maximize)
		reused.Reset()
		if reused.NumVars() != 0 || reused.NumConstraints() != 0 {
			t.Fatalf("round %d: Reset left %d vars, %d rows", round, reused.NumVars(), reused.NumConstraints())
		}
		for j := 0; j < n; j++ {
			name, obj := fmt.Sprintf("x%d", j), float64(rng.Intn(9)-2)
			if rng.Intn(5) == 0 {
				fresh.AddIntegerVariable(name, obj)
				reused.AddIntegerVariable(name, obj)
			} else {
				fresh.AddVariable(name, obj)
				reused.AddVariable(name, obj)
			}
		}
		for i := 0; i < m; i++ {
			var terms []Term
			for k := rng.Intn(2 * n); k >= 0; k-- {
				terms = append(terms, Term{Var(rng.Intn(n)), float64(rng.Intn(7) - 1)})
			}
			if rng.Intn(4) == 0 { // a pair that cancels exactly
				v := Var(rng.Intn(n))
				terms = append(terms, Term{v, 2.5}, Term{Var(rng.Intn(n)), 1}, Term{v, -2.5})
			}
			op, rhs := LE, float64(1+rng.Intn(20))
			switch rng.Intn(8) {
			case 0:
				op = GE
			case 1:
				op, rhs = EQ, float64(rng.Intn(4))
			}
			name := fmt.Sprintf("r%d", i)
			mustConstraint(t, fresh, name, op, rhs, terms...)
			mustConstraint(t, reused, name, op, rhs, terms...)
		}
		if !reflect.DeepEqual(reused.Dense(), fresh.Dense()) {
			t.Fatalf("round %d: rebuilt problem differs from the fresh one", round)
		}
		for _, warm := range []*Basis{nil, prev} {
			want, err := fresh.SolveWithOptions(SolveOptions{WarmStart: warm})
			if err != nil {
				t.Fatal(err)
			}
			got, err := reused.SolveWithOptions(SolveOptions{WarmStart: warm})
			if err != nil {
				t.Fatal(err)
			}
			if diff := sameSolution(got, want); diff != "" {
				t.Fatalf("round %d (warm=%v): %s", round, warm != nil, diff)
			}
			if warm == nil {
				statuses[want.Status]++
				if want.Basis != nil {
					prev = want.Basis
				}
			}
		}
	}
	if statuses[StatusOptimal] < 50 || statuses[StatusUnbounded]+statuses[StatusInfeasible] < 10 {
		t.Fatalf("outcomes %v: the generator lost its coverage", statuses)
	}
}

// TestSolveAgainstBruteForce cross-checks the simplex optimum against
// brute-force enumeration of all basic solutions on random small LPs with
// inequality constraints: max c'x st Ax <= b, x >= 0 with b >= 0 (always
// feasible at x=0, bounded by construction).
func TestSolveAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(3) // variables
		m := 2 + rng.Intn(3) // constraints
		c := make([]float64, n)
		for j := range c {
			c[j] = math.Round(rng.Float64()*20-5) / 2
		}
		a := make([][]float64, m)
		b := make([]float64, m)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				// Strictly positive coefficients keep the polytope bounded.
				a[i][j] = math.Round(rng.Float64()*9+1) / 2
			}
			b[i] = math.Round(rng.Float64()*20+1) / 2
		}

		p := NewProblem(Maximize)
		vars := make([]Var, n)
		for j := range vars {
			vars[j] = p.AddVariable("x", c[j])
		}
		for i := range a {
			terms := make([]Term, n)
			for j := range terms {
				terms[j] = Term{vars[j], a[i][j]}
			}
			mustConstraint(t, p, "c", LE, b[i], terms...)
		}
		sol := mustOptimal(t, p)

		want := bruteForceMax(c, a, b)
		if !almostEq(sol.Objective, want) {
			t.Fatalf("trial %d: simplex %v != brute force %v (c=%v a=%v b=%v)",
				trial, sol.Objective, want, c, a, b)
		}
	}
}

// hyperplane is one defining hyperplane row.x = rhs of the test polytope.
type hyperplane struct {
	row []float64
	rhs float64
}

// bruteForceMax enumerates all vertices of {Ax <= b, x >= 0} by solving
// every n-subset of the m+n defining hyperplanes and returns the best
// feasible objective. Assumes the region is bounded and x=0 feasible.
func bruteForceMax(c []float64, a [][]float64, b []float64) float64 {
	n := len(c)
	m := len(a)
	hps := make([]hyperplane, 0, m+n)
	for i := 0; i < m; i++ {
		hps = append(hps, hyperplane{row: a[i], rhs: b[i]})
	}
	for j := 0; j < n; j++ {
		row := make([]float64, n)
		row[j] = 1
		hps = append(hps, hyperplane{row: row, rhs: 0})
	}
	best := 0.0 // x = 0 is feasible
	idx := make([]int, n)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == n {
			x, ok := solveSquare(hps, idx, n)
			if !ok {
				return
			}
			// Feasibility.
			for j := 0; j < n; j++ {
				if x[j] < -1e-7 {
					return
				}
			}
			for i := 0; i < m; i++ {
				lhs := 0.0
				for j := 0; j < n; j++ {
					lhs += a[i][j] * x[j]
				}
				if lhs > b[i]+1e-7 {
					return
				}
			}
			obj := 0.0
			for j := 0; j < n; j++ {
				obj += c[j] * x[j]
			}
			if obj > best {
				best = obj
			}
			return
		}
		for i := start; i < len(hps); i++ {
			idx[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	return best
}

// solveSquare solves the n x n system picked out by idx with Gaussian
// elimination; ok=false for singular systems.
func solveSquare(hps []hyperplane, idx []int, n int) ([]float64, bool) {
	mat := make([][]float64, n)
	for i := 0; i < n; i++ {
		mat[i] = make([]float64, n+1)
		copy(mat[i], hps[idx[i]].row)
		mat[i][n] = hps[idx[i]].rhs
	}
	for col := 0; col < n; col++ {
		piv := -1
		for r := col; r < n; r++ {
			if math.Abs(mat[r][col]) > 1e-9 {
				piv = r
				break
			}
		}
		if piv < 0 {
			return nil, false
		}
		mat[col], mat[piv] = mat[piv], mat[col]
		inv := 1 / mat[col][col]
		for k := col; k <= n; k++ {
			mat[col][k] *= inv
		}
		for r := 0; r < n; r++ {
			if r == col || mat[r][col] == 0 {
				continue
			}
			f := mat[r][col]
			for k := col; k <= n; k++ {
				mat[r][k] -= f * mat[col][k]
			}
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = mat[i][n]
	}
	return x, true
}

func mustConstraint(t *testing.T, p *Problem, name string, op Op, rhs float64, terms ...Term) {
	t.Helper()
	if _, err := p.AddConstraint(name, op, rhs, terms...); err != nil {
		t.Fatalf("AddConstraint(%s): %v", name, err)
	}
}

func mustOptimal(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	return sol
}

func TestIterationLimit(t *testing.T) {
	// A modest LP with a 1-iteration budget must report the limit rather
	// than a wrong answer.
	p := NewProblem(Maximize)
	vars := make([]Var, 6)
	for i := range vars {
		vars[i] = p.AddVariable("x", float64(i+1))
		mustConstraint(t, p, "ub", LE, 1, Term{vars[i], 1})
	}
	terms := make([]Term, len(vars))
	for i := range terms {
		terms[i] = Term{vars[i], 1}
	}
	mustConstraint(t, p, "sum", LE, 3, terms...)
	sol, err := p.SolveWithOptions(SolveOptions{MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusIterLimit && sol.Status != StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
}

func TestRedundantEqualityRows(t *testing.T) {
	// Linearly dependent equalities leave a zero-value artificial stuck in
	// the basis; purgeArtificials must cope and phase 2 must still find
	// the optimum. max x + y s.t. x + y = 2 (twice), x <= 1.5.
	p := NewProblem(Maximize)
	x := p.AddVariable("x", 1)
	y := p.AddVariable("y", 1)
	mustConstraint(t, p, "eq1", EQ, 2, Term{x, 1}, Term{y, 1})
	mustConstraint(t, p, "eq2", EQ, 2, Term{x, 1}, Term{y, 1})
	mustConstraint(t, p, "ub", LE, 1.5, Term{x, 1})
	sol := mustOptimal(t, p)
	if !almostEq(sol.Objective, 2) {
		t.Fatalf("objective %v, want 2", sol.Objective)
	}
}

func TestContradictoryEqualities(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVariable("x", 1)
	mustConstraint(t, p, "eq1", EQ, 2, Term{x, 1})
	mustConstraint(t, p, "eq2", EQ, 3, Term{x, 1})
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusInfeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
}

func TestManyVariablesPartialPricing(t *testing.T) {
	// Thousands of columns, all tied in groups of equal cost, exercise the
	// full-width pricing scan and its tie-breaking; the optimum of this
	// separable problem is known in closed form.
	p := NewProblem(Maximize)
	const n = 3000
	terms := make([]Term, n)
	for i := 0; i < n; i++ {
		v := p.AddVariable("x", 1+float64(i%7))
		terms[i] = Term{v, 1}
	}
	mustConstraint(t, p, "budget", LE, 10, terms...)
	sol := mustOptimal(t, p)
	// Best coefficient is 7 (i%7 == 6): put all 10 units there.
	if !almostEq(sol.Objective, 70) {
		t.Fatalf("objective %v, want 70", sol.Objective)
	}
}

func TestZeroCoefficientTermsDropped(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVariable("x", 1)
	y := p.AddVariable("y", 1)
	// y's coefficient cancels to zero; the row must constrain only x.
	mustConstraint(t, p, "c", LE, 2, Term{x, 1}, Term{y, 1}, Term{y, -1})
	mustConstraint(t, p, "uy", LE, 5, Term{y, 1})
	sol := mustOptimal(t, p)
	if !almostEq(sol.Value(x), 2) || !almostEq(sol.Value(y), 5) {
		t.Fatalf("x=%v y=%v, want (2, 5)", sol.Value(x), sol.Value(y))
	}
}

// TestChooseEntering pins the pricing rule: the most negative reduced
// cost below -reducedCostTol enters, ties go to the highest index, and
// under Bland's rule the lowest improving index enters instead.
func TestChooseEntering(t *testing.T) {
	cases := []struct {
		name  string
		d     []float64
		limit int
		bland bool
		want  int
	}{
		{"most negative wins", []float64{-1, -3, -2, 4}, 4, false, 1},
		{"equal d goes to the highest index", []float64{-2, -2, 1, -2, 0}, 5, false, 3},
		{"nothing below -tol", []float64{0, -reducedCostTol, -reducedCostTol / 2, 5}, 4, false, -1},
		{"basic columns never enter", []float64{0, 3, 0, 0.5, 0}, 5, false, -1},
		{"columns at or past limit are barred", []float64{-1, -2, -9}, 2, false, 1},
		{"bland takes the lowest improving index", []float64{1, 0, -1, -5, -1}, 5, true, 2},
		{"bland with nothing improving", []float64{0, 2, -reducedCostTol}, 3, true, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := &simplexState{d: tc.d}
			if got := st.chooseEntering(tc.limit, tc.bland); got != tc.want {
				t.Fatalf("chooseEntering(%v, limit %d, bland %v) = %d, want %d", tc.d, tc.limit, tc.bland, got, tc.want)
			}
		})
	}
}
