package lp

import (
	"container/heap"
	"math"
)

// intTol is the tolerance within which a value counts as integral.
const intTol = 1e-6

// bbNode is one branch-and-bound subproblem: its parent's subproblem plus
// one bound row, v op value (v <= floor or v >= ceil); the root has no
// parent and no row. A node's LP is the root problem with the rows of its
// chain appended root first, so a child's LP is its parent's plus one row
// at the end, and a variable branched on twice carries both rows.
type bbNode struct {
	parent *bbNode
	v      Var
	op     Op
	value  float64
	// bound is the parent LP objective, used for best-first ordering and
	// pruning (an upper bound for maximization).
	bound float64
	// basis is the parent's optimal basis plus the slack of the node's own
	// row: an exact basis of the node's LP that only the new row makes
	// primal infeasible, so a few dual simplex pivots repair it. nil at
	// the root, which solves cold.
	basis *Basis
	// seq numbers the nodes in creation order; among equal bounds the
	// newest is solved first, so a run is a function of its input.
	seq int
}

// openNodes is the best-first heap of unsolved nodes; better orders two
// bounds in the problem's sense.
type openNodes struct {
	nodes  []*bbNode
	better func(a, b float64) bool
}

func (h *openNodes) Len() int { return len(h.nodes) }

func (h *openNodes) Less(a, b int) bool {
	x, y := h.nodes[a], h.nodes[b]
	if x.bound != y.bound {
		return h.better(x.bound, y.bound)
	}
	return x.seq > y.seq
}

func (h *openNodes) Swap(a, b int) { h.nodes[a], h.nodes[b] = h.nodes[b], h.nodes[a] }

func (h *openNodes) Push(x any) { h.nodes = append(h.nodes, x.(*bbNode)) }

func (h *openNodes) Pop() any {
	n := len(h.nodes) - 1
	node := h.nodes[n]
	h.nodes[n] = nil
	h.nodes = h.nodes[:n]
	return node
}

// IntegerOptions tunes SolveInteger.
type IntegerOptions struct {
	// MaxNodes caps explored branch-and-bound nodes; zero means 100000.
	// A solve that stops at the cap while an open node could still beat
	// its incumbent returns the incumbent with StatusIterLimit.
	MaxNodes int
	// RelativeGap prunes nodes whose LP bound improves on the incumbent
	// by less than this fraction, trading exactness for tractability on
	// tie-heavy instances (zero = prove optimality exactly).
	RelativeGap float64
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
		seq          int
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
	root := &bbNode{bound: math.Inf(-1)}
	if maximize {
		root.bound = math.Inf(1)
	}
	open := &openNodes{nodes: []*bbNode{root}, better: better}
	var path []*bbNode

	for open.Len() > 0 && nodesVisited < maxNodes {
		node := heap.Pop(open).(*bbNode)
		nodesVisited++

		// Prune against the incumbent (plus gap tolerance) before solving.
		if incumbent != nil && !better(node.bound, pruneBound()) {
			continue
		}

		sol, rows, err := p.solveNode(node, &path)
		if err != nil {
			return nil, err
		}
		node.basis = nil // solved: only its children's bases are needed
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
		basis := sol.Basis.withRow(rows)
		seq += 2
		heap.Push(open, &bbNode{parent: node, v: branch, op: LE, value: math.Floor(x), bound: sol.Objective, basis: basis, seq: seq - 1})
		heap.Push(open, &bbNode{parent: node, v: branch, op: GE, value: math.Ceil(x), bound: sol.Objective, basis: basis, seq: seq})
	}

	if incumbent == nil {
		// Distinguish a proven-infeasible program (open set exhausted)
		// from an exhausted node budget.
		status := StatusInfeasible
		if open.Len() > 0 {
			status = StatusIterLimit
		}
		return &Solution{Status: status, Iterations: totalIters, Nodes: nodesVisited}, nil
	}
	// The heap's top holds the best open bound: if it could still beat the
	// incumbent, the node budget ran out before optimality was proven.
	if open.Len() > 0 && better(open.nodes[0].bound, pruneBound()) {
		incumbent.Status = StatusIterLimit
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

// solveNode solves the LP relaxation of the root problem plus the bound
// rows of the node's chain, appended root first and removed afterwards,
// seeded from the node's warm basis. It also returns the node LP's row
// count, the index a child's row takes. path is the chain walk's scratch.
func (p *Problem) solveNode(node *bbNode, path *[]*bbNode) (*Solution, int, error) {
	nRows := len(p.rows)
	defer p.truncateRows(nRows)

	chain := (*path)[:0]
	for n := node; n.parent != nil; n = n.parent {
		chain = append(chain, n)
	}
	*path = chain
	for k := len(chain) - 1; k >= 0; k-- {
		n := chain[k]
		if _, err := p.AddConstraint("", n.op, n.value, Term{Var: n.v, Coef: 1}); err != nil {
			return nil, 0, err
		}
	}
	sol, err := p.SolveWithOptions(SolveOptions{WarmStart: node.basis})
	return sol, len(p.rows), err
}
