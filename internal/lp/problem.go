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
// to tens of thousands of columns. The solver stores the constraint matrix
// in compressed-sparse-column form and maintains the basis inverse in
// product form (a periodically refactorized reference inverse plus an
// eta file of pivot updates), prices with devex partial pricing, and can
// warm-start from a previous solution's basis (Solution.Basis and
// SolveOptions.WarmStart) — the right trade-offs at that shape (m << n)
// and for the sequences of slightly-perturbed LPs the per-slot online
// algorithms generate.
package lp

import (
	"errors"
	"fmt"
	"math"
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
	ErrNotSolved     = errors.New("lp: problem not solved to optimality")
	ErrNonIntegrable = errors.New("lp: integer variable required")
)

// Var is an opaque handle to a problem variable.
type Var int

// Term is one coefficient in a linear constraint.
type Term struct {
	Var  Var
	Coef float64
}

// column holds the builder-side description of one variable. The name
// hash is precomputed at build time so warm-basis resolution never has to
// hash thousands of column names inside a solve.
type column struct {
	name    string
	hash    uint64
	obj     float64
	integer bool
	entries []entry // filled when constraints reference the column
}

// entry is one nonzero of the sparse column.
type entry struct {
	row  int
	coef float64
}

// row holds one constraint.
type row struct {
	name string
	hash uint64
	op   Op
	rhs  float64
}

// nameHash is FNV-1a, fixed here (rather than hash/fnv) to keep the hot
// path allocation free.
func nameHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Problem is a linear (or mixed-integer) program under construction. All
// variables are implicitly bounded below by zero. Create with NewProblem,
// then add variables and constraints, then call Solve or SolveInteger.
// A Problem is not safe for concurrent mutation.
type Problem struct {
	sense Sense
	cols  []column
	rows  []row
}

// NewProblem returns an empty problem with the given optimization sense.
func NewProblem(sense Sense) *Problem {
	if sense != Minimize && sense != Maximize {
		sense = Minimize
	}
	return &Problem{sense: sense}
}

// Sense returns the optimization direction.
func (p *Problem) Sense() Sense { return p.sense }

// NumVars returns the number of variables added so far.
func (p *Problem) NumVars() int { return len(p.cols) }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.rows) }

// Reset empties the problem for rebuilding under the same sense, keeping
// its row, column and per-column entry storage. A caller that rebuilds a
// similar problem again and again (the per-slot LP-PT) builds into one
// Problem and, once that has seen its largest shape, allocates nothing.
// Solutions and bases of earlier solves stay valid: they alias nothing of
// the problem.
func (p *Problem) Reset() {
	p.rows = p.rows[:0]
	p.cols = p.cols[:0]
}

// addColumn appends a column, taking over the entry storage a column at
// this position held before the last Reset.
func (p *Problem) addColumn(name string, obj float64, integer bool) Var {
	j := len(p.cols)
	var entries []entry
	if j < cap(p.cols) {
		entries = p.cols[:j+1][j].entries[:0]
	}
	p.cols = append(p.cols, column{name: name, hash: nameHash(name), obj: obj, integer: integer, entries: entries})
	return Var(j)
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
	r := len(p.rows)
	p.rows = append(p.rows, row{name: name, hash: nameHash(name), op: op, rhs: rhs})
	// Rows are appended in index order, so a column's entries are sorted by
	// row and its last entry belongs to row r exactly when an earlier term
	// of this constraint already touched the column: duplicates accumulate
	// there, with no staging map.
	maybeZero := false
	for _, t := range terms {
		es := p.cols[t.Var].entries
		if n := len(es); n > 0 && es[n-1].row == r {
			es[n-1].coef += t.Coef
			maybeZero = true
			continue
		}
		p.cols[t.Var].entries = append(es, entry{row: r, coef: t.Coef})
		maybeZero = maybeZero || t.Coef == 0
	}
	if maybeZero {
		for _, t := range terms {
			es := p.cols[t.Var].entries
			if n := len(es); n > 0 && es[n-1].row == r && es[n-1].coef == 0 {
				p.cols[t.Var].entries = es[:n-1]
			}
		}
	}
	return r, nil
}

// Solution holds the result of a solve.
type Solution struct {
	// Status reports how the solve terminated. X and Objective are only
	// meaningful for StatusOptimal.
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
	// Basis is the optimal basis, usable as SolveOptions.WarmStart for a
	// subsequent structurally similar solve (the next time slot's LP-PT,
	// the next rounding pass, a branch-and-bound child). Only set for
	// continuous solves that reach StatusOptimal.
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
