package lp

import (
	"math"
	"os"
	"testing"
)

// loadLPPT parses the captured slot LP-PT instance in testdata.
func loadLPPT(t *testing.T) *Problem {
	t.Helper()
	f, err := os.Open("testdata/lppt_churn_mesh.lp")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pp, err := Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	return pp.Problem
}

// blocks builds k copies of d side by side as one block-diagonal problem,
// row r of block b with its right-hand side scaled by scale(b, r). The
// first block keeps d's names, so a basis of d resolves onto it.
func blocks(t *testing.T, d *Dense, k int, scale func(b, r int) float64) *Problem {
	t.Helper()
	p := NewProblem(d.Sense)
	n := len(d.Obj)
	name := func(b int, names []string, i int) string {
		if b > 0 {
			return ""
		}
		return names[i]
	}
	for b := 0; b < k; b++ {
		for v, c := range d.Obj {
			p.AddVariable(name(b, d.Names, v), c)
		}
	}
	for b := 0; b < k; b++ {
		for r := range d.A {
			var terms []Term
			for v, c := range d.A[r] {
				if c != 0 {
					terms = append(terms, Term{Var: Var(b*n + v), Coef: c})
				}
			}
			mustConstraint(t, p, name(b, d.RowNames, r), d.Ops[r], scale(b, r)*d.RHS[r], terms...)
		}
	}
	return p
}

// TestColdSolveIsPure pins the property the decision cache's first-sighting
// replay rests on: a cold solve is a function of its LP alone, whatever the
// pooled scratch it runs on held before. The captured LP-PT instance is
// solved on a fresh scratch, on one that stopped mid-solve on a larger
// problem, and on one that just ran a warm-started solve (crash, dual
// repair, phase 2), and X, Objective and Iterations must agree bit for
// bit.
func TestColdSolveIsPure(t *testing.T) {
	p := loadLPPT(t)
	d := p.Dense()
	want := p.solveIn(new(solveScratch), SolveOptions{})
	if want.Status != StatusOptimal || want.Iterations == 0 {
		t.Fatalf("fresh scratch: %v after %d pivots, want an optimal solve that pivots", want.Status, want.Iterations)
	}

	// The larger problem stops at its iteration limit, so the scratch it
	// leaves holds a basis, reduced costs and weights from mid-solve.
	afterLarger := new(solveScratch)
	larger := blocks(t, d, 3, func(b, _ int) float64 { return 0.7 + 0.3*float64(b) })
	if sol := larger.solveIn(afterLarger, SolveOptions{MaxIterations: want.Iterations}); sol.Status != StatusIterLimit {
		t.Fatalf("larger problem: %v, want it cut off mid-solve", sol.Status)
	}

	// A small pair on which a warm start runs the full dual repair: the
	// seed's basis is primal infeasible on the target, and no slack can
	// repair the violated row.
	afterWarm := new(solveScratch)
	seedLP := NewProblem(Maximize)
	a, b, c := seedLP.AddVariable("x0", -2), seedLP.AddVariable("x1", -1), seedLP.AddVariable("x2", 2)
	mustConstraint(t, seedLP, "r0", GE, 17, Term{a, 1}, Term{b, 7})
	mustConstraint(t, seedLP, "r1", LE, 4, Term{c, 1})
	mustConstraint(t, seedLP, "r2", LE, 5, Term{a, 4}, Term{c, 9})
	target := NewProblem(Maximize)
	x0, x1 := target.AddVariable("x0", 5), target.AddVariable("x1", 4)
	x2, x3 := target.AddVariable("x2", -1), target.AddVariable("x3", 3)
	mustConstraint(t, target, "r0", LE, 3, Term{x0, 4}, Term{x3, 6})
	mustConstraint(t, target, "r1", GE, 2, Term{x0, 6}, Term{x3, 3})
	mustConstraint(t, target, "r2", LE, 19, Term{x0, 3}, Term{x1, 10}, Term{x2, 2}, Term{x3, 10})
	seed := mustOptimal(t, seedLP)
	if sol := target.solveIn(afterWarm, SolveOptions{WarmStart: seed.Basis}); sol.Status != StatusOptimal {
		t.Fatalf("warm-started solve: %v", sol.Status)
	}

	for name, sc := range map[string]*solveScratch{"after a larger problem": afterLarger, "after a warm-started solve": afterWarm} {
		got := p.solveIn(sc, SolveOptions{})
		if got.Status != want.Status || got.Iterations != want.Iterations ||
			math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
			t.Fatalf("%s: %v/%d/%v, fresh scratch %v/%d/%v", name,
				got.Status, got.Iterations, got.Objective, want.Status, want.Iterations, want.Objective)
		}
		for v := range want.X {
			if math.Float64bits(got.X[v]) != math.Float64bits(want.X[v]) {
				t.Fatalf("%s: x[%d] = %v, fresh scratch %v", name, v, got.X[v], want.X[v])
			}
		}
	}
}
