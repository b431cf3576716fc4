// Package lp implements a self-contained linear-programming toolkit: a
// problem builder, a two-phase revised-simplex solver for problems in the
// form
//
//	max/min c'x   subject to   a_i'x {<=, >=, =} b_i,   x >= 0,
//
// and a branch-and-bound wrapper for mixed-integer problems. It exists
// because the paper's algorithms (ILP-RM, the resource-slot-indexed LP
// relaxation, and LP-PT) all require an LP/ILP solver and the Go ecosystem
// offers none in the standard library.
//
// Scale notes: the relaxations solved here have a few hundred rows and up
// to tens of thousands of columns. A problem reaches the simplex through
// one standard-form writer: its columns, then its rows, each row its
// structural entries in ascending column order followed by its slack (and
// artificial, where the slack cannot start basic), and the
// compressed-sparse-column matrix the simplex prices from is the rows'
// one transpose. A Problem stores its constraints the way they are built,
// row-wise and compressed (one flat row pointer, column and value array):
// AddConstraint appends a row's terms contiguously, accumulating
// duplicates in place, so building costs the nonzeros and a rebuild
// through Reset allocates nothing; a solve lowers it through the writer.
// A Standard skips the Problem: an LP of the form max c'x, rows <= b with
// b >= 0, x >= 0, whose builder emits each row's terms in column order,
// is written straight into the standard form, in storage the Standard
// keeps across rebuilds, and its solve writes x into the caller's buffer
// and captures a basis only when asked — the per-slot LP-PT components
// are built and solved this way, with no allocation. The solver
// maintains the basis inverse in product form (a periodically
// refactorized reference inverse plus an eta file of pivot updates), and
// keeps every column's reduced cost up to date from the pivot row — built
// from the row-wise copy — instead of re-pricing each pivot, choosing the
// entering column by the most negative reduced cost. It can warm-start
// from a previous solution's basis, read by position (Solution.Basis,
// Standard.Basis and SolveOptions.WarmStart), which pays when the next LP
// keeps the last one's variables and rows in place: branch and bound
// seeds each node with its parent's optimal basis plus the slack of the
// one bound row the node appends. It does not pay on the per-slot online
// LP-PT, whose request set turns over almost completely every slot: on
// 25 921 of the benchmark's churn_mesh component solves (41 × 113 on
// average) a seed from the previous slot saved one pivot in fourteen
// (12.6 against 13.6) and still took longer than a cold solve (median
// 42 µs against 40 µs), so that path solves cold.
package lp

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Sense selects the optimization direction of a problem.
type Sense int

// Optimization directions.
const (
	Minimize Sense = iota + 1
	Maximize
)

// Op is a constraint comparison operator.
type Op int

// Constraint operators.
const (
	LE Op = iota + 1 // <=
	GE               // >=
	EQ               // =
)

func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Status describes the outcome of a solve.
type Status int

// Solve outcomes.
const (
	StatusOptimal Status = iota + 1
	StatusInfeasible
	StatusUnbounded
	StatusIterLimit
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusIterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Errors returned by the builder and solver.
var (
	ErrBadVariable   = errors.New("lp: invalid variable")
	ErrBadCoef       = errors.New("lp: invalid coefficient")
	ErrNoVariables   = errors.New("lp: problem has no variables")
	ErrNonIntegrable = errors.New("lp: integer variable required")
)

// Var is an opaque handle to a problem variable.
type Var int

// Term is one coefficient in a linear constraint.
type Term struct {
	Var  Var
	Coef float64
}

// column holds the builder-side description of one variable.
type column struct {
	name    string
	obj     float64
	integer bool
}

// row holds one constraint; its nonzeros live in the problem's row-wise
// matrix.
type row struct {
	name string
	op   Op
	rhs  float64
}

// Problem is a linear (or mixed-integer) program under construction. All
// variables are implicitly bounded below by zero. Create with NewProblem,
// then add variables and constraints, then call Solve or SolveInteger.
// A Problem is not safe for concurrent mutation.
type Problem struct {
	sense Sense
	cols  []column
	rows  []row
	// mat is the constraint matrix, stored row-wise as it is built: each
	// AddConstraint appends one row, its columns ascending and distinct,
	// with no zero coefficient.
	mat csr
	// mark[j] is where column j's entry in the row being added sits in
	// mat, if it has one there (see AddConstraint).
	mark []int
}

// NewProblem returns an empty problem with the given optimization sense.
func NewProblem(sense Sense) *Problem {
	if sense != Minimize && sense != Maximize {
		sense = Minimize
	}
	return &Problem{sense: sense, mat: csr{ptr: []int{0}}}
}

// NumVars returns the number of variables added so far.
func (p *Problem) NumVars() int { return len(p.cols) }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.rows) }

// Reset empties the problem for rebuilding under the same sense, keeping
// its row, column and matrix storage. A caller that rebuilds a similar
// problem again and again (the per-slot LP-PT) builds into one Problem
// and, once that has seen its largest shape, allocates nothing. Solutions
// and bases of earlier solves stay valid: they alias nothing of the
// problem.
func (p *Problem) Reset() {
	p.cols = p.cols[:0]
	p.truncateRows(0)
}

// truncateRows drops every constraint from row nRows on.
func (p *Problem) truncateRows(nRows int) {
	end := 0
	if nRows > 0 {
		end = p.mat.ptr[nRows]
	}
	p.rows = p.rows[:nRows]
	p.mat.ptr = append(p.mat.ptr[:nRows], end)
	p.mat.ci = p.mat.ci[:end]
	p.mat.vx = p.mat.vx[:end]
}

func (p *Problem) addColumn(name string, obj float64, integer bool) Var {
	p.cols = append(p.cols, column{name: name, obj: obj, integer: integer})
	return Var(len(p.cols) - 1)
}

// rowEntries returns views of row i's columns and coefficients.
func (p *Problem) rowEntries(i int) ([]int, []float64) {
	s, e := p.mat.ptr[i], p.mat.ptr[i+1]
	return p.mat.ci[s:e], p.mat.vx[s:e]
}

// AddVariable adds a continuous variable x >= 0 with the given objective
// coefficient and returns its handle.
func (p *Problem) AddVariable(name string, obj float64) Var {
	return p.addColumn(name, obj, false)
}

// AddIntegerVariable adds an integer variable x >= 0 (branched on by
// SolveInteger; treated as continuous by Solve).
func (p *Problem) AddIntegerVariable(name string, obj float64) Var {
	return p.addColumn(name, obj, true)
}

// AddConstraint adds the constraint sum(terms) op rhs. Terms referencing
// the same variable are accumulated, and a variable whose coefficients sum
// to zero gets no entry. Returns the constraint index. An invalid term
// rejects the whole constraint and leaves the problem as it was.
func (p *Problem) AddConstraint(name string, op Op, rhs float64, terms ...Term) (int, error) {
	if op != LE && op != GE && op != EQ {
		return 0, fmt.Errorf("lp: invalid op %v", op)
	}
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		return 0, fmt.Errorf("%w: rhs %v", ErrBadCoef, rhs)
	}
	for _, t := range terms {
		if int(t.Var) < 0 || int(t.Var) >= len(p.cols) {
			return 0, fmt.Errorf("%w: %d", ErrBadVariable, t.Var)
		}
		if math.IsNaN(t.Coef) || math.IsInf(t.Coef, 0) {
			return 0, fmt.Errorf("%w: %v on var %d", ErrBadCoef, t.Coef, t.Var)
		}
	}
	if len(p.mark) < len(p.cols) {
		p.mark = append(p.mark, make([]int, len(p.cols)-len(p.mark))...)
	}
	// The row's terms are appended in arrival order, each column once:
	// mark[j] points at j's entry when an earlier term of this row already
	// placed one, and duplicates accumulate there, with no staging map. A
	// mark left by an earlier row, or by a build before Reset, points before
	// start or at another column's entry, so the check needs no clearing.
	start := len(p.mat.ci)
	sorted, maybeZero := true, false
	for _, t := range terms {
		j := int(t.Var)
		if k := p.mark[j]; k >= start && k < len(p.mat.ci) && p.mat.ci[k] == j {
			p.mat.vx[k] += t.Coef
			maybeZero = true
			continue
		}
		if n := len(p.mat.ci); n > start && p.mat.ci[n-1] > j {
			sorted = false
		}
		p.mark[j] = len(p.mat.ci)
		p.mat.ci = append(p.mat.ci, j)
		p.mat.vx = append(p.mat.vx, t.Coef)
		maybeZero = maybeZero || t.Coef == 0
	}
	if maybeZero {
		// Drop the coefficients that summed (or started) at zero.
		k := start
		for i := start; i < len(p.mat.ci); i++ {
			if p.mat.vx[i] != 0 {
				p.mat.ci[k], p.mat.vx[k] = p.mat.ci[i], p.mat.vx[i]
				k++
			}
		}
		p.mat.ci, p.mat.vx = p.mat.ci[:k], p.mat.vx[:k]
	}
	if !sorted {
		sort.Sort(rowSorter{p.mat.ci[start:], p.mat.vx[start:]})
	}
	p.mat.ptr = append(p.mat.ptr, len(p.mat.ci))
	p.rows = append(p.rows, row{name: name, op: op, rhs: rhs})
	return len(p.rows) - 1, nil
}

// rowSorter orders one row's entries by column.
type rowSorter struct {
	ci []int
	vx []float64
}

func (s rowSorter) Len() int           { return len(s.ci) }
func (s rowSorter) Less(a, b int) bool { return s.ci[a] < s.ci[b] }
func (s rowSorter) Swap(a, b int) {
	s.ci[a], s.ci[b] = s.ci[b], s.ci[a]
	s.vx[a], s.vx[b] = s.vx[b], s.vx[a]
}

// Solution holds the result of a solve.
type Solution struct {
	// Status reports how the solve terminated. X and Objective are
	// meaningful for StatusOptimal, and for an integer solve that ran out
	// of nodes holding an incumbent it could not prove optimal
	// (StatusIterLimit with X set).
	Status Status
	// Objective is the optimal objective value in the problem's original
	// sense.
	Objective float64
	// X holds the value of each variable, indexed by Var.
	X []float64
	// Iterations counts simplex pivots across both phases (and, for
	// integer solves, across all branch-and-bound nodes).
	Iterations int
	// Nodes counts branch-and-bound nodes explored (1 for pure LPs).
	Nodes int
	// Dual holds the optimal dual value (shadow price) of each
	// constraint: Dual[i] = dObjective/d rhs_i. Only set for continuous
	// solves that reach StatusOptimal; nil for integer solves.
	Dual []float64
	// Basis is the optimal basis by position, usable as
	// SolveOptions.WarmStart for a later solve of a problem that keeps
	// this one's variables and rows in place (a branch-and-bound child).
	// Only set for continuous solves that reach StatusOptimal.
	Basis *Basis
}

// DualOf returns the shadow price of constraint row (0 when unavailable).
func (s *Solution) DualOf(row int) float64 {
	if s == nil || row < 0 || row >= len(s.Dual) {
		return 0
	}
	return s.Dual[row]
}

// Value returns the solved value of v.
func (s *Solution) Value(v Var) float64 {
	if s == nil || int(v) < 0 || int(v) >= len(s.X) {
		return 0
	}
	return s.X[v]
}
