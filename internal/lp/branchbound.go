package lp

import (
	"fmt"
	"math"
	"sort"
)

// intTol is the tolerance within which a value counts as integral.
const intTol = 1e-6

// bbNode is one branch-and-bound subproblem: a set of extra bound
// constraints (var <= floor or var >= ceil) layered on the root problem.
type bbNode struct {
	// bound is the parent LP objective, used for best-first ordering and
	// pruning (an upper bound for maximization).
	bound  float64
	floors map[Var]float64 // v <= value
	ceils  map[Var]float64 // v >= value
	depth  int
	// warm is the parent node's optimal basis: the child LP differs by a
	// single bound row, so seeding from it typically re-solves in a few
	// pivots (and falls back to a cold start when the new bound makes
	// the parent basis primal infeasible).
	warm *Basis
}

// IntegerOptions tunes SolveInteger.
type IntegerOptions struct {
	// MaxNodes caps explored branch-and-bound nodes; zero means 100000.
	MaxNodes int
	// RelativeGap prunes nodes whose LP bound improves on the incumbent
	// by less than this fraction, trading exactness for tractability on
	// tie-heavy instances (zero = prove optimality exactly).
	RelativeGap float64
	// LP carries per-node simplex options.
	LP SolveOptions
}

// SolveInteger optimizes the problem with all variables added via
// AddIntegerVariable restricted to integer values, using LP-based branch
// and bound with best-first node selection. At least one integer variable
// must exist.
func (p *Problem) SolveInteger() (*Solution, error) {
	return p.SolveIntegerWithOptions(IntegerOptions{})
}

// SolveIntegerWithOptions is SolveInteger with explicit tuning.
func (p *Problem) SolveIntegerWithOptions(opts IntegerOptions) (*Solution, error) {
	intVars := make([]Var, 0, len(p.cols))
	for j, c := range p.cols {
		if c.integer {
			intVars = append(intVars, Var(j))
		}
	}
	if len(intVars) == 0 {
		return nil, ErrNonIntegrable
	}
	maxNodes := opts.MaxNodes
	if maxNodes == 0 {
		maxNodes = 100000
	}

	maximize := p.sense == Maximize
	better := func(a, b float64) bool {
		if maximize {
			return a > b
		}
		return a < b
	}

	var (
		incumbent    *Solution
		totalIters   int
		nodesVisited int
	)
	// pruneBound inflates the incumbent objective by the gap tolerance:
	// nodes not beating it are cut.
	pruneBound := func() float64 {
		b := incumbent.Objective
		slack := opts.RelativeGap * math.Abs(b)
		if maximize {
			return b + slack
		}
		return b - slack
	}
	root := &bbNode{depth: 0}
	if maximize {
		root.bound = math.Inf(1)
	} else {
		root.bound = math.Inf(-1)
	}
	open := []*bbNode{root}

	for len(open) > 0 && nodesVisited < maxNodes {
		// Best-first: pop the node with the most promising parent bound.
		best := 0
		for i := 1; i < len(open); i++ {
			if better(open[i].bound, open[best].bound) {
				best = i
			}
		}
		node := open[best]
		open[best] = open[len(open)-1]
		open = open[:len(open)-1]
		nodesVisited++

		// Prune against the incumbent (plus gap tolerance) before solving.
		if incumbent != nil && !better(node.bound, pruneBound()) {
			continue
		}

		sol, err := p.solveNode(node, opts.LP)
		if err != nil {
			return nil, err
		}
		totalIters += sol.Iterations
		if sol.Status == StatusUnbounded {
			// An unbounded relaxation at the root means the MIP is
			// unbounded (or infeasible); report it directly.
			sol.Nodes = nodesVisited
			sol.Iterations = totalIters
			return sol, nil
		}
		if sol.Status != StatusOptimal {
			continue
		}
		// Primal heuristic: flooring the node solution's integer variables
		// often yields a globally feasible integral point (always, for
		// pure packing constraints), giving an incumbent early so pruning
		// can bite. Feasibility is verified against the original rows.
		if cand := p.floorCandidate(sol, intVars); cand != nil {
			if incumbent == nil || better(cand.Objective, incumbent.Objective) {
				incumbent = cand
			}
		}
		if incumbent != nil && !better(sol.Objective, pruneBound()) {
			continue
		}

		// Most-fractional branching variable.
		branch := Var(-1)
		worst := intTol
		for _, v := range intVars {
			x := sol.X[v]
			frac := math.Abs(x - math.Round(x))
			if frac > worst {
				worst = frac
				branch = v
			}
		}
		if branch < 0 {
			// Integral: new incumbent. Duals of the node LP are not
			// meaningful for the integer program.
			snapshot := *sol
			snapshot.Dual = nil
			snapshot.X = append([]float64(nil), sol.X...)
			for _, v := range intVars {
				snapshot.X[v] = math.Round(snapshot.X[v])
			}
			incumbent = &snapshot
			continue
		}

		x := sol.X[branch]
		lo, hi := math.Floor(x), math.Ceil(x)
		down := &bbNode{
			bound:  sol.Objective,
			floors: cloneBounds(node.floors),
			ceils:  cloneBounds(node.ceils),
			depth:  node.depth + 1,
			warm:   sol.Basis,
		}
		if cur, ok := down.floors[branch]; !ok || lo < cur {
			down.floors[branch] = lo
		}
		up := &bbNode{
			bound:  sol.Objective,
			floors: cloneBounds(node.floors),
			ceils:  cloneBounds(node.ceils),
			depth:  node.depth + 1,
			warm:   sol.Basis,
		}
		if cur, ok := up.ceils[branch]; !ok || hi > cur {
			up.ceils[branch] = hi
		}
		open = append(open, down, up)
	}

	if incumbent == nil {
		// Distinguish a proven-infeasible program (open set exhausted)
		// from an exhausted node budget.
		status := StatusInfeasible
		if len(open) > 0 {
			status = StatusIterLimit
		}
		return &Solution{Status: status, Iterations: totalIters, Nodes: nodesVisited}, nil
	}
	incumbent.Iterations = totalIters
	incumbent.Nodes = nodesVisited
	return incumbent, nil
}

// floorCandidate rounds the integer variables of a node LP solution down
// (after snapping near-integral values) and returns it as a candidate
// incumbent when it satisfies every original constraint; nil otherwise.
func (p *Problem) floorCandidate(sol *Solution, intVars []Var) *Solution {
	x := append([]float64(nil), sol.X...)
	for _, v := range intVars {
		x[v] = math.Floor(x[v] + intTol)
		if x[v] < 0 {
			x[v] = 0
		}
	}
	// Verify feasibility row by row.
	for i, r := range p.rows {
		lhs := 0.0
		cols, vals := p.rowEntries(i)
		for k, j := range cols {
			if x[j] != 0 {
				lhs += vals[k] * x[j]
			}
		}
		switch r.op {
		case LE:
			if lhs > r.rhs+feasTol {
				return nil
			}
		case GE:
			if lhs < r.rhs-feasTol {
				return nil
			}
		case EQ:
			if math.Abs(lhs-r.rhs) > feasTol {
				return nil
			}
		}
	}
	obj := 0.0
	for j := range p.cols {
		obj += p.cols[j].obj * x[j]
	}
	return &Solution{Status: StatusOptimal, Objective: obj, X: x}
}

// solveNode solves the LP relaxation of the root problem plus the node's
// branching bounds. The bounds are appended as temporary constraints and
// removed afterwards.
func (p *Problem) solveNode(node *bbNode, opts SolveOptions) (*Solution, error) {
	nRows := len(p.rows)
	defer p.truncateRows(nRows)

	// Deterministic iteration order keeps solves reproducible.
	for _, v := range sortedVars(node.floors) {
		if _, err := p.AddConstraint(fmt.Sprintf("bb-le-%d", v), LE, node.floors[v], Term{Var: v, Coef: 1}); err != nil {
			return nil, err
		}
	}
	for _, v := range sortedVars(node.ceils) {
		if _, err := p.AddConstraint(fmt.Sprintf("bb-ge-%d", v), GE, node.ceils[v], Term{Var: v, Coef: 1}); err != nil {
			return nil, err
		}
	}
	// Seed the child LP from the parent's optimal basis; the solver
	// discards it automatically if the new branching bound cuts it off.
	// The root node keeps any caller-provided warm start.
	if node.warm != nil {
		opts.WarmStart = node.warm
	}
	return p.SolveWithOptions(opts)
}

func cloneBounds(m map[Var]float64) map[Var]float64 {
	out := make(map[Var]float64, len(m)+1)
	for k, v := range m {
		out[k] = v
	}
	return out
}

func sortedVars(m map[Var]float64) []Var {
	vs := make([]Var, 0, len(m))
	for v := range m {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}
