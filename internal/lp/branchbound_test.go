package lp

import (
	"math"
	"math/rand"
	"testing"
)

func TestSolveIntegerKnapsack(t *testing.T) {
	// 0/1 knapsack: values {60, 100, 120}, weights {10, 20, 30}, cap 50.
	// Optimum picks items 2 and 3 for value 220.
	p := NewProblem(Maximize)
	x1 := p.AddIntegerVariable("x1", 60)
	x2 := p.AddIntegerVariable("x2", 100)
	x3 := p.AddIntegerVariable("x3", 120)
	mustConstraint(t, p, "cap", LE, 50, Term{x1, 10}, Term{x2, 20}, Term{x3, 30})
	for _, v := range []Var{x1, x2, x3} {
		mustConstraint(t, p, "ub", LE, 1, Term{v, 1})
	}
	sol, err := p.SolveInteger()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !almostEq(sol.Objective, 220) {
		t.Fatalf("objective = %v, want 220", sol.Objective)
	}
	if !almostEq(sol.Value(x1), 0) || !almostEq(sol.Value(x2), 1) || !almostEq(sol.Value(x3), 1) {
		t.Fatalf("solution = %v, want [0 1 1]", sol.X)
	}
}

func TestSolveIntegerInfeasible(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddIntegerVariable("x", 1)
	mustConstraint(t, p, "lo", GE, 3, Term{x, 2}) // x >= 1.5
	mustConstraint(t, p, "hi", LE, 3.8, Term{x, 2})
	sol, err := p.SolveInteger()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible (x must be in [1.5, 1.9])", sol.Status)
	}
}

func TestSolveIntegerRequiresIntegerVars(t *testing.T) {
	p := NewProblem(Maximize)
	p.AddVariable("x", 1)
	if _, err := p.SolveInteger(); err == nil {
		t.Fatal("want error when no integer variables exist")
	}
}

func TestSolveIntegerMixed(t *testing.T) {
	// max 2x + y with x integer, x + y <= 3.5, x <= 2.2, y <= 1.3.
	// x = 2 (int), y = 1.3 -> 5.3.
	p := NewProblem(Maximize)
	x := p.AddIntegerVariable("x", 2)
	y := p.AddVariable("y", 1)
	mustConstraint(t, p, "c", LE, 3.5, Term{x, 1}, Term{y, 1})
	mustConstraint(t, p, "ubx", LE, 2.2, Term{x, 1})
	mustConstraint(t, p, "uby", LE, 1.3, Term{y, 1})
	sol, err := p.SolveInteger()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !almostEq(sol.Objective, 5.3) {
		t.Fatalf("objective = %v, want 5.3", sol.Objective)
	}
	if !almostEq(sol.Value(x), 2) {
		t.Fatalf("x = %v, want 2", sol.Value(x))
	}
}

func TestSolveIntegerRollbackLeavesProblemIntact(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddIntegerVariable("x", 1)
	mustConstraint(t, p, "ub", LE, 2.5, Term{x, 1})
	before := p.NumConstraints()
	if _, err := p.SolveInteger(); err != nil {
		t.Fatal(err)
	}
	if p.NumConstraints() != before {
		t.Fatalf("constraints leaked: %d -> %d", before, p.NumConstraints())
	}
	// The same problem must solve identically a second time.
	sol, err := p.SolveInteger()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(sol.Objective, 2) {
		t.Fatalf("objective = %v, want 2", sol.Objective)
	}
}

// TestSolveIntegerAgainstEnumeration cross-checks branch and bound against
// exhaustive enumeration on random 0/1 knapsack-like programs.
func TestSolveIntegerAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(5)
		val := make([]float64, n)
		wt := make([]float64, n)
		for j := range val {
			val[j] = float64(1 + rng.Intn(30))
			wt[j] = float64(1 + rng.Intn(15))
		}
		cap := float64(5 + rng.Intn(30))

		p := NewProblem(Maximize)
		vars := make([]Var, n)
		for j := range vars {
			vars[j] = p.AddIntegerVariable("x", val[j])
			mustConstraint(t, p, "ub", LE, 1, Term{vars[j], 1})
		}
		terms := make([]Term, n)
		for j := range terms {
			terms[j] = Term{vars[j], wt[j]}
		}
		mustConstraint(t, p, "cap", LE, cap, terms...)

		sol, err := p.SolveInteger()
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}

		// Exhaustive 2^n enumeration.
		best := 0.0
		for mask := 0; mask < 1<<n; mask++ {
			w, v := 0.0, 0.0
			for j := 0; j < n; j++ {
				if mask&(1<<j) != 0 {
					w += wt[j]
					v += val[j]
				}
			}
			if w <= cap && v > best {
				best = v
			}
		}
		if math.Abs(sol.Objective-best) > 1e-6 {
			t.Fatalf("trial %d: bb %v != enum %v (val=%v wt=%v cap=%v)",
				trial, sol.Objective, best, val, wt, cap)
		}
	}
}

// TestSolveIntegerNodeCapIsNotOptimal pins what a node-capped solve
// reports. max 10x + 6y + 6z s.t. 4x + 3y + 3z <= 6 over binaries has the
// optimum 12 (y = z = 1); its root relaxation reads 14 and floors to the
// incumbent 10 (x = 1). With one node the open children can still beat
// 10, so the solve returns that incumbent as an iteration limit; with a
// gap wide enough that nothing open can beat it, or with nodes enough to
// close the tree, it is optimal.
func TestSolveIntegerNodeCapIsNotOptimal(t *testing.T) {
	build := func() *Problem {
		p := NewProblem(Maximize)
		x := p.AddIntegerVariable("x", 10)
		y := p.AddIntegerVariable("y", 6)
		z := p.AddIntegerVariable("z", 6)
		mustConstraint(t, p, "cap", LE, 6, Term{x, 4}, Term{y, 3}, Term{z, 3})
		for _, v := range []Var{x, y, z} {
			mustConstraint(t, p, "ub", LE, 1, Term{v, 1})
		}
		return p
	}
	for _, tc := range []struct {
		opts   IntegerOptions
		status Status
		obj    float64
	}{
		{IntegerOptions{MaxNodes: 1}, StatusIterLimit, 10},
		{IntegerOptions{MaxNodes: 1, RelativeGap: 0.5}, StatusOptimal, 10},
		{IntegerOptions{}, StatusOptimal, 12},
	} {
		sol, err := build().SolveIntegerWithOptions(tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != tc.status || !almostEq(sol.Objective, tc.obj) || sol.X == nil {
			t.Fatalf("%+v: status %v objective %v X %v, want %v %v with X", tc.opts, sol.Status, sol.Objective, sol.X, tc.status, tc.obj)
		}
	}
}
