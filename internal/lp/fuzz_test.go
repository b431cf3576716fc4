package lp

import (
	"math"
	"strings"
	"testing"
)

// FuzzParse hardens the LP text parser: arbitrary input must either parse
// into a well-formed problem or return an error — never panic — and
// parsed problems must solve without crashing.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"max: 3 x + 2 y\nc1: x + y <= 4\nc2: x + 3 y <= 6\n",
		"min: x\nlo: x >= 5\n",
		"max: x\neq: x = 2\nint x\n",
		"# comment\nmax: 2*a - b\nr: a - b <= 1\n",
		"max: x\n",
		"max: 3 4 x\n",
		"nonsense",
		"max: x\nc: x <= 1e9\n",
		"min: -x\nc: -x >= -3\n",
		"max: 3 x y\nc1: x + y - <= 4\n",
		"max: 2e-3 x - 1E+2 y\nc: x + y <= 1\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		pp, err := Parse(strings.NewReader(src))
		if err != nil {
			return
		}
		if pp.Problem == nil || pp.Problem.NumVars() == 0 {
			return
		}
		// Cap solver effort: fuzz inputs can encode unbounded or huge
		// problems; we only assert absence of panics and status sanity.
		sol, err := pp.Problem.SolveWithOptions(SolveOptions{MaxIterations: 2000})
		if err != nil {
			t.Fatalf("Solve returned error for parsed problem: %v", err)
		}
		switch sol.Status {
		case StatusOptimal, StatusInfeasible, StatusUnbounded, StatusIterLimit:
		default:
			t.Fatalf("unknown status %v", sol.Status)
		}
	})
}

// FuzzSolveInteger checks branch and bound against exhaustive enumeration
// on the small general-integer programs decodeIntProgram reads: the solve
// must report infeasible exactly when no point of the box is feasible, and
// otherwise an optimal, integral, feasible X whose objective is the
// enumerated optimum. Upper bounds above 1 make the branching chain put a
// second bound row on a variable it already bounded. The seed corpus
// (testdata/fuzz/FuzzSolveInteger) holds an infeasible box and two
// programs whose trees bound a variable twice, one with equality rows and
// one with cover (GE) rows.
func FuzzSolveInteger(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		prog := decodeIntProgram(data)
		p := prog.problem()
		best, feasible := prog.enumerate()
		sol, err := p.SolveInteger()
		if err != nil {
			t.Fatal(err)
		}
		if !feasible {
			if sol.Status != StatusInfeasible {
				t.Fatalf("%+v: status %v objective %v, want infeasible", prog, sol.Status, sol.Objective)
			}
			return
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("%+v: status %v, want optimal %v", prog, sol.Status, best)
		}
		if math.Abs(sol.Objective-best) > 1e-4 {
			t.Fatalf("%+v: objective %v, enumeration %v", prog, sol.Objective, best)
		}
		x := make([]int, len(prog.obj))
		for j := range x {
			x[j] = int(sol.X[j])
			if float64(x[j]) != sol.X[j] {
				t.Fatalf("%+v: x[%d] = %v is not integral", prog, j, sol.X[j])
			}
		}
		if obj, ok := prog.eval(x); !ok || obj != best {
			t.Fatalf("%+v: X %v evaluates to %v (feasible %v), enumeration %v", prog, x, obj, ok, best)
		}
	})
}

// intProgram is a small pure-integer maximization: 0 <= x_j <= ub[j]
// integer, and rows of integer coefficients and right-hand sides.
type intProgram struct {
	obj  []float64
	ub   []int
	rows []intRow
}

type intRow struct {
	op   Op
	coef []float64
	rhs  float64
}

// decodeIntProgram reads 1–5 variables (objective coefficient in
// [-10, 10], upper bound in [1, 4]) and 0–4 LE, GE or EQ rows
// (coefficients in [-3, 3], right-hand side in [-3, 12]) from data; bytes
// past its end read as zero.
func decodeIntProgram(data []byte) intProgram {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	var prog intProgram
	n := 1 + next()%5
	for j := 0; j < n; j++ {
		prog.obj = append(prog.obj, float64(next()%21-10))
		prog.ub = append(prog.ub, 1+next()%4)
	}
	for m := next() % 5; m > 0; m-- {
		r := intRow{op: Op(1 + next()%3)}
		for j := 0; j < n; j++ {
			r.coef = append(r.coef, float64(next()%7-3))
		}
		r.rhs = float64(next()%16 - 3)
		prog.rows = append(prog.rows, r)
	}
	return prog
}

// problem builds the program with integer variables, one bound row per
// variable and then the program's rows.
func (prog intProgram) problem() *Problem {
	p := NewProblem(Maximize)
	vars := make([]Var, len(prog.obj))
	for j, c := range prog.obj {
		vars[j] = p.AddIntegerVariable("", c)
		mustAdd(p, "", LE, float64(prog.ub[j]), Term{vars[j], 1})
	}
	for _, r := range prog.rows {
		terms := make([]Term, len(vars))
		for j, v := range vars {
			terms[j] = Term{v, r.coef[j]}
		}
		mustAdd(p, "", r.op, r.rhs, terms...)
	}
	return p
}

// eval returns x's objective and whether x satisfies every row.
func (prog intProgram) eval(x []int) (float64, bool) {
	for _, r := range prog.rows {
		lhs := 0.0
		for j, a := range r.coef {
			lhs += a * float64(x[j])
		}
		if (r.op == LE && lhs > r.rhs) || (r.op == GE && lhs < r.rhs) || (r.op == EQ && lhs != r.rhs) {
			return 0, false
		}
	}
	obj := 0.0
	for j, c := range prog.obj {
		obj += c * float64(x[j])
	}
	return obj, true
}

// enumerate returns the best objective over every integer point of the
// box, and whether any point is feasible.
func (prog intProgram) enumerate() (float64, bool) {
	x := make([]int, len(prog.obj))
	best, feasible := math.Inf(-1), false
	for {
		if obj, ok := prog.eval(x); ok && obj > best {
			best, feasible = obj, true
		}
		j := 0
		for ; j < len(x) && x[j] == prog.ub[j]; j++ {
			x[j] = 0
		}
		if j == len(x) {
			return best, feasible
		}
		x[j]++
	}
}
