package lp

import (
	"math"
	"math/rand"
	"testing"
)

// tightEq is the warm-vs-cold agreement tolerance: warm starting must not
// change the optimum, only the pivot count.
func tightEq(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }

// randomLEProblem builds a random bounded maximization LP with LE rows
// (the shape of the paper's relaxations). A perturbed rebuild from the same
// seed keeps every variable and row at its index, so a basis of one maps
// onto the other by position.
func randomLEProblem(rng *rand.Rand, nVars, nCons int, jitter float64) *Problem {
	p := NewProblem(Maximize)
	vars := make([]Var, nVars)
	for j := range vars {
		c := 1 + rng.Float64()*9
		vars[j] = p.AddVariable(varName("v", j), c*(1+jitter*(rng.Float64()-0.5)))
	}
	for i := 0; i < nCons; i++ {
		var terms []Term
		for j := range vars {
			if rng.Float64() < 0.6 {
				a := 0.5 + rng.Float64()*2
				terms = append(terms, Term{vars[j], a * (1 + jitter*(rng.Float64()-0.5))})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, Term{vars[rng.Intn(nVars)], 1})
		}
		rhs := (2 + rng.Float64()*8) * (1 + jitter*(rng.Float64()-0.5))
		if _, err := p.AddConstraint(varName("r", i), LE, rhs, terms...); err != nil {
			panic(err)
		}
	}
	// A box row keeps the problem bounded even when the random sparsity
	// pattern leaves some variable out of every other constraint.
	box := make([]Term, nVars)
	for j := range vars {
		box[j] = Term{vars[j], 1}
	}
	if _, err := p.AddConstraint("box", LE, 50*(1+jitter*(rng.Float64()-0.5)), box...); err != nil {
		panic(err)
	}
	return p
}

func varName(prefix string, i int) string {
	return prefix + "[" + string(rune('0'+i/10)) + string(rune('0'+i%10)) + "]"
}

// TestWarmStartMatchesColdOnPerturbedProblems is the core warm-start
// contract: across randomly perturbed re-solves of the same LP family, the
// warm-started objective equals the cold objective to 1e-9, and warm
// starting an unchanged problem does not pivot more than solving it cold.
func TestWarmStartMatchesColdOnPerturbedProblems(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		nVars := 4 + rng.Intn(12)
		nCons := 3 + rng.Intn(10)
		seed := rng.Int63()

		base := randomLEProblem(rand.New(rand.NewSource(seed)), nVars, nCons, 0)
		sol := mustOptimal(t, base)
		if sol.Basis == nil || sol.Basis.Size() == 0 {
			t.Fatalf("trial %d: optimal solve returned no basis", trial)
		}

		// Re-solve a perturbed sibling cold and warm.
		r2 := rand.New(rand.NewSource(seed))
		cold := randomLEProblem(r2, nVars, nCons, 0.2)
		coldSol := mustOptimal(t, cold)

		r3 := rand.New(rand.NewSource(seed))
		warm := randomLEProblem(r3, nVars, nCons, 0.2)
		warmSol, err := warm.SolveWithOptions(SolveOptions{WarmStart: sol.Basis})
		if err != nil {
			t.Fatalf("trial %d: warm solve: %v", trial, err)
		}
		if warmSol.Status != StatusOptimal {
			t.Fatalf("trial %d: warm status %v", trial, warmSol.Status)
		}
		if !tightEq(coldSol.Objective, warmSol.Objective) {
			t.Fatalf("trial %d: cold %v != warm %v", trial, coldSol.Objective, warmSol.Objective)
		}

		// Identical re-solve from the optimal basis must not pivot more
		// than the cold solve did.
		again := randomLEProblem(rand.New(rand.NewSource(seed)), nVars, nCons, 0)
		againSol, err := again.SolveWithOptions(SolveOptions{WarmStart: sol.Basis})
		if err != nil {
			t.Fatalf("trial %d: warm re-solve: %v", trial, err)
		}
		if !tightEq(againSol.Objective, sol.Objective) {
			t.Fatalf("trial %d: warm re-solve objective %v != %v", trial, againSol.Objective, sol.Objective)
		}
		if againSol.Iterations > sol.Iterations {
			t.Fatalf("trial %d: warm re-solve used %d iterations, cold used %d",
				trial, againSol.Iterations, sol.Iterations)
		}
	}
}

// degenerateProblem is the highly degenerate LP of TestSolveDegenerate:
// every basic feasible solution at the origin ties, which historically
// cycles naive pricing rules.
func degenerateProblem() (*Problem, []Var) {
	p := NewProblem(Maximize)
	x1 := p.AddVariable("x1", 10)
	x2 := p.AddVariable("x2", -57)
	x3 := p.AddVariable("x3", -9)
	x4 := p.AddVariable("x4", -24)
	mustAdd(p, "c1", LE, 0, Term{x1, 0.5}, Term{x2, -5.5}, Term{x3, -2.5}, Term{x4, 9})
	mustAdd(p, "c2", LE, 0, Term{x1, 0.5}, Term{x2, -1.5}, Term{x3, -0.5}, Term{x4, 1})
	mustAdd(p, "c3", LE, 1, Term{x1, 1})
	return p, []Var{x1, x2, x3, x4}
}

func mustAdd(p *Problem, name string, op Op, rhs float64, terms ...Term) {
	if _, err := p.AddConstraint(name, op, rhs, terms...); err != nil {
		panic(err)
	}
}

// TestWarmStartDegenerateBasis is the degenerate-basis regression case:
// warm starting from the optimal basis of a highly degenerate LP must
// reproduce the optimum (objective 1 at x = (1, 0, 1, 0)) instead of
// stalling on the zero-valued basic variables.
func TestWarmStartDegenerateBasis(t *testing.T) {
	p1, _ := degenerateProblem()
	sol1 := mustOptimal(t, p1)
	if !almostEq(sol1.Objective, 1) {
		t.Fatalf("degenerate optimum = %v, want 1", sol1.Objective)
	}
	if sol1.Basis == nil {
		t.Fatal("no basis captured on degenerate optimum")
	}

	p2, _ := degenerateProblem()
	sol2, err := p2.SolveWithOptions(SolveOptions{WarmStart: sol1.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if sol2.Status != StatusOptimal || !tightEq(sol2.Objective, sol1.Objective) {
		t.Fatalf("warm degenerate re-solve: status %v objective %v", sol2.Status, sol2.Objective)
	}
	if sol2.Iterations > sol1.Iterations {
		t.Fatalf("warm re-solve pivoted %d > cold %d on degenerate basis",
			sol2.Iterations, sol1.Iterations)
	}

	// Perturb the one non-trivial rhs: the warm basis stays optimal in
	// structure, only the vertex moves.
	p3 := NewProblem(Maximize)
	x1 := p3.AddVariable("x1", 10)
	x2 := p3.AddVariable("x2", -57)
	x3 := p3.AddVariable("x3", -9)
	x4 := p3.AddVariable("x4", -24)
	mustAdd(p3, "c1", LE, 0, Term{x1, 0.5}, Term{x2, -5.5}, Term{x3, -2.5}, Term{x4, 9})
	mustAdd(p3, "c2", LE, 0, Term{x1, 0.5}, Term{x2, -1.5}, Term{x3, -0.5}, Term{x4, 1})
	mustAdd(p3, "c3", LE, 2, Term{x1, 1})
	sol3, err := p3.SolveWithOptions(SolveOptions{WarmStart: sol1.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if sol3.Status != StatusOptimal || !tightEq(sol3.Objective, 2) {
		t.Fatalf("perturbed warm solve: status %v objective %v, want 2", sol3.Status, sol3.Objective)
	}
}

// TestWarmStartInfeasibleBasisFallsBack feeds a warm basis whose vertex is
// primal infeasible in the new problem (a new cutting row excludes it);
// the solver must fall back to a cold start and still reach the optimum.
func TestWarmStartInfeasibleBasisFallsBack(t *testing.T) {
	p1 := NewProblem(Maximize)
	x := p1.AddVariable("x", 1)
	y := p1.AddVariable("y", 1)
	mustAdd(p1, "cx", LE, 4, Term{x, 1})
	mustAdd(p1, "cy", LE, 4, Term{y, 1})
	sol1 := mustOptimal(t, p1)
	if !almostEq(sol1.Objective, 8) {
		t.Fatalf("objective = %v, want 8", sol1.Objective)
	}

	p2 := NewProblem(Maximize)
	x2 := p2.AddVariable("x", 1)
	y2 := p2.AddVariable("y", 1)
	mustAdd(p2, "cx", LE, 4, Term{x2, 1})
	mustAdd(p2, "cy", LE, 4, Term{y2, 1})
	mustAdd(p2, "cut", LE, 2, Term{x2, 1}, Term{y2, 1})
	sol2, err := p2.SolveWithOptions(SolveOptions{WarmStart: sol1.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if sol2.Status != StatusOptimal || !tightEq(sol2.Objective, 2) {
		t.Fatalf("cut warm solve: status %v objective %v, want 2", sol2.Status, sol2.Objective)
	}
}

// TestWarmStartStaleBasisHarmless feeds a basis captured from a larger,
// unrelated problem: its entries past the target's variables and rows are
// dropped and the rest seed an arbitrary basis, so the solve must still
// find the optimum.
func TestWarmStartStaleBasisHarmless(t *testing.T) {
	other := randomLEProblem(rand.New(rand.NewSource(3)), 12, 9, 0)
	alien := mustOptimal(t, other).Basis
	outOfRange := 0
	for _, e := range alien.entries {
		if e.idx >= 2 { // the target has two variables and two rows
			outOfRange++
		}
	}
	if outOfRange == 0 {
		t.Fatalf("alien basis %+v has no entry out of the target's range", alien.entries)
	}

	p := NewProblem(Maximize)
	x := p.AddVariable("x", 3)
	y := p.AddVariable("y", 2)
	mustAdd(p, "c1", LE, 4, Term{x, 1}, Term{y, 1})
	mustAdd(p, "c2", LE, 6, Term{x, 1}, Term{y, 3})
	sol, err := p.SolveWithOptions(SolveOptions{WarmStart: alien})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || !almostEq(sol.Objective, 12) {
		t.Fatalf("stale warm solve: status %v objective %v, want 12", sol.Status, sol.Objective)
	}
}

// TestWarmStartAppendedRow is the branch-and-bound chain's contract: a
// problem plus one appended bound row that cuts its optimum off, seeded
// from the problem's optimal basis plus the new row's slack, reaches the
// cold optimum in no more pivots than the cold solve.
func TestWarmStartAppendedRow(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	checked := 0
	for trial := 0; trial < 60; trial++ {
		nVars, nCons := 4+rng.Intn(12), 3+rng.Intn(10)
		seed := rng.Int63()
		base := randomLEProblem(rand.New(rand.NewSource(seed)), nVars, nCons, 0)
		sol := mustOptimal(t, base)
		v := Var(-1)
		for j, x := range sol.X {
			if x > 0.5 && (v < 0 || x > sol.X[v]) {
				v = Var(j)
			}
		}
		if v < 0 {
			continue
		}
		// The down branch keeps v below its optimal value, the up branch
		// above it; an up branch past the box is infeasible and skipped.
		op, rhs := LE, math.Floor(sol.X[v]*0.75)
		if trial%2 == 1 {
			op, rhs = GE, math.Floor(sol.X[v])+1
		}
		child := func() *Problem {
			p := randomLEProblem(rand.New(rand.NewSource(seed)), nVars, nCons, 0)
			mustAdd(p, "", op, rhs, Term{v, 1})
			return p
		}
		cold, err := child().Solve()
		if err != nil {
			t.Fatal(err)
		}
		if cold.Status != StatusOptimal {
			continue
		}
		warm, err := child().SolveWithOptions(SolveOptions{WarmStart: sol.Basis.withRow(base.NumConstraints())})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != StatusOptimal || !tightEq(warm.Objective, cold.Objective) {
			t.Fatalf("trial %d: warm %v %v, cold %v", trial, warm.Status, warm.Objective, cold.Objective)
		}
		if warm.Iterations > cold.Iterations {
			t.Fatalf("trial %d: %v %v row: warm pivoted %d, cold %d", trial, op, rhs, warm.Iterations, cold.Iterations)
		}
		checked++
	}
	if checked < 30 {
		t.Fatalf("only %d of 60 trials compared: the generator lost its coverage", checked)
	}
}

// TestWarmStartAcrossPhase1 warm-starts a problem whose cold solve needs
// artificials (GE and EQ rows): the captured optimal basis must let the
// re-solve skip phase 1 entirely.
func TestWarmStartAcrossPhase1(t *testing.T) {
	build := func() *Problem {
		p := NewProblem(Minimize)
		x := p.AddVariable("x", 2)
		y := p.AddVariable("y", 3)
		mustAdd(p, "cover", GE, 10, Term{x, 1}, Term{y, 1})
		mustAdd(p, "balance", EQ, 2, Term{x, 1}, Term{y, -1})
		return p
	}
	sol1 := mustOptimal(t, build())
	sol2, err := build().SolveWithOptions(SolveOptions{WarmStart: sol1.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if sol2.Status != StatusOptimal || !tightEq(sol2.Objective, sol1.Objective) {
		t.Fatalf("warm solve: status %v objective %v, want %v", sol2.Status, sol2.Objective, sol1.Objective)
	}
	if sol2.Iterations > sol1.Iterations {
		t.Fatalf("warm solve pivoted %d > cold %d across phase 1", sol2.Iterations, sol1.Iterations)
	}
}
