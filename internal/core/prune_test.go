package core_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"mecoffload/internal/core"
	"mecoffload/internal/lp"
	"mecoffload/internal/oracle"
)

// almostEqual compares under a relative tolerance anchored at magnitude 1.
func almostEqual(a, b, e float64) bool {
	return math.Abs(a-b) <= e*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// sameBits reports whether two floats are the same bit pattern.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// solveStandard solves a written LP cold and returns what it found in a
// Solution's shape.
func solveStandard(t *testing.T, w *lp.Standard) *lp.Solution {
	t.Helper()
	x := make([]float64, w.NumVars())
	status, obj, err := w.Solve(x, lp.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return &lp.Solution{Status: status, Objective: obj, X: x, Iterations: w.Iterations(), Nodes: 1}
}

// TestDroppedCapRowsAreExact: the slot LP's builder drops every cap row
// (10) whose requests' coefficients cannot fill its right-hand side. On
// random LP-PT instances the pruned LP has the optimum of the unpruned
// one (and of the dense reference simplex), every dropped row has
// positive slack at the unpruned optimum, and while the unpruned LP has
// fewer than 128 rows — below that the solver refactors on the same
// schedule whatever the row count — the pruned solve returns the same y,
// bit for bit, in as many pivots.
func TestDroppedCapRowsAreExact(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	solved, dropped, bitChecked := 0, 0, 0
	for trial := 0; trial < 400; trial++ {
		pair := core.RandomPrunedLPPair(t, rng)
		if pair.Pruned == nil {
			continue
		}
		solved++
		pd, fd := pair.Pruned.Dense(), pair.Full.Dense()
		if !slices.EqualFunc(pd.Obj, fd.Obj, sameBits) {
			t.Fatalf("trial %d: pruning changed the columns", trial)
		}
		pSol := solveStandard(t, pair.Pruned)
		fSol, err := pair.Full.Solve()
		if err != nil {
			t.Fatal(err)
		}
		dSol, err := oracle.SolveDense(fd, 0)
		if err != nil {
			t.Fatal(err)
		}
		if pSol.Status != lp.StatusOptimal || fSol.Status != lp.StatusOptimal || dSol.Status != lp.StatusOptimal {
			t.Fatalf("trial %d: status pruned %v, unpruned %v, dense %v", trial, pSol.Status, fSol.Status, dSol.Status)
		}
		if !almostEqual(pSol.Objective, fSol.Objective, 1e-9) || !almostEqual(pSol.Objective, dSol.Objective, 1e-7) {
			t.Fatalf("trial %d: optimum pruned %v, unpruned %v, dense %v", trial, pSol.Objective, fSol.Objective, dSol.Objective)
		}

		// The pruned rows are the unpruned ones minus the dropped, in order:
		// an ordered subsequence matched by operator, right-hand side and
		// coefficients, bit for bit.
		kept := 0
		for r := range fd.A {
			if kept < len(pd.A) && pd.Ops[kept] == fd.Ops[r] && sameBits(pd.RHS[kept], fd.RHS[r]) &&
				slices.EqualFunc(pd.A[kept], fd.A[r], sameBits) {
				kept++
				continue
			}
			dropped++
			slack := fd.RHS[r]
			for v, a := range fd.A[r] {
				slack -= a * fSol.X[v]
			}
			if fd.Ops[r] != lp.LE || !(slack > 0) {
				t.Fatalf("trial %d: dropped row %d has slack %v at the unpruned optimum", trial, r, slack)
			}
		}
		if kept != len(pd.A) {
			t.Fatalf("trial %d: the pruned LP has rows the unpruned one lacks", trial)
		}

		if len(fd.A) < 128 {
			bitChecked++
			if pSol.Iterations != fSol.Iterations {
				t.Fatalf("trial %d: %d pivots pruned, %d unpruned", trial, pSol.Iterations, fSol.Iterations)
			}
			for v := range fSol.X {
				if math.Float64bits(pSol.X[v]) != math.Float64bits(fSol.X[v]) {
					t.Fatalf("trial %d: column %d = %v pruned, %v unpruned", trial, v, pSol.X[v], fSol.X[v])
				}
			}
		}
	}
	if solved < 200 || dropped < solved || bitChecked < solved/2 {
		t.Fatalf("%d of 400 trials solved, %d rows dropped, %d compared bit for bit: the generator lost its coverage", solved, dropped, bitChecked)
	}
}

// TestAssignRowMassWithinSlack pins the margin the draw-first rounding
// pass rests on: a component is left unsolved when none of its requests
// drew below (1+10⁻⁶)/denominator, which is exact only while no request's
// Σ_il y_jil — row (9), capped at 1 — exceeds 1 by that much at the
// solver's optimum. On the random LP-PT instances of
// TestDroppedCapRowsAreExact, pruned and unpruned alike, every request's
// mass stays within 1 + 1e-9.
func TestAssignRowMassWithinSlack(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	solved, full := 0, 0
	for trial := 0; trial < 400; trial++ {
		pair := core.RandomPrunedLPPair(t, rng)
		if pair.Pruned == nil {
			continue
		}
		solved++
		fSol, err := pair.Full.Solve()
		if err != nil {
			t.Fatal(err)
		}
		for _, sol := range []*lp.Solution{solveStandard(t, pair.Pruned), fSol} {
			if sol.Status != lp.StatusOptimal {
				t.Fatalf("trial %d: status %v", trial, sol.Status)
			}
			mass := map[int]float64{}
			for v, j := range pair.ColReq {
				mass[j] += sol.X[v]
			}
			for j, sum := range mass {
				if sum > 1+1e-9 {
					t.Fatalf("trial %d: request %d holds Σ y = %v, past 1 + 1e-9", trial, j, sum)
				}
				if sum > 1-1e-9 {
					full++
				}
			}
		}
	}
	if solved < 200 || full < solved {
		t.Fatalf("%d of 400 trials solved, %d requests at full mass: the generator lost its coverage", solved, full)
	}
}
