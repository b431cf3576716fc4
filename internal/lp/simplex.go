package lp

import (
	"math"
)

// Numerical tolerances of the simplex method.
const (
	// reducedCostTol: a column prices as improving only if its reduced
	// cost is below -reducedCostTol.
	reducedCostTol = 1e-9
	// pivotTol: minimum magnitude accepted for a pivot element.
	pivotTol = 1e-9
	// feasTol: slack allowed when checking feasibility/integrality.
	feasTol = 1e-7
	// degenerateLimit: consecutive degenerate pivots before switching
	// from most-negative-reduced-cost pricing to Bland's anti-cycling rule.
	degenerateLimit = 64
	// artValueTol: an artificial variable above this value marks the
	// basis as primal infeasible for the original rows (phase 1 needed).
	artValueTol = 1e-6
)

// refactorLimit returns the eta-file length that triggers a periodic
// refactorization: long enough to amortize the O(m^3) rebuild, short
// enough to bound both eta-application cost and accumulated roundoff.
func refactorLimit(m int) int {
	if m < 128 {
		return 128
	}
	return m
}

// standardForm is the internal "min c'x, Ax = b, x >= 0" representation.
// Columns 0..n-1 are the original variables, then one slack/surplus per
// inequality row, then one artificial per row that needs one.
type standardForm struct {
	m, n     int
	a        *csc      // all columns (structural, slack/surplus, artificial)
	at       csr       // a's rows, for the pivot row of each iteration
	c        []float64 // phase-2 costs, length nTotal
	b        []float64 // rhs, all >= 0
	nTotal   int
	artStart int   // first artificial column index (== nTotal if none)
	basis0   []int // default initial basis (slack or artificial per row)
	// slackCol[i] is the slack/surplus column of row i (-1 for EQ rows);
	// colRow[j] is the row of slack/artificial column j (-1 for
	// structural columns). Both are needed to capture and re-apply bases.
	slackCol []int
	colRow   []int
	// flipped marks original rows whose sign was negated to make b >= 0;
	// needed to map internal duals back to the caller's rows.
	flipped []bool
	// nSlack and nArt count the slack/surplus and artificial columns
	// written so far (see endRow).
	nSlack, nArt int
	// resolve scratch, reused across solves (see resolveBasis).
	colsBuf    []int
	claimedBuf []bool
}

// simplexState is the mutable state of a revised-simplex run.
type simplexState struct {
	sf    *standardForm
	fac   *factor   // B^{-1} in product form (reference inverse + etas)
	basis []int     // basis[i] = column occupying basis position i
	inBas []bool    // inBas[j] = column j currently basic
	xB    []float64 // current basic variable values
	iters int
	// d holds the reduced cost of every column under the running phase's
	// costs (zero for basic columns): computed from pi at the start of a
	// phase and after each refactorization, then updated from the pivot
	// row at each pivot.
	d []float64
	// alpha is the pivot row's accumulator, indexed by column. It is all
	// zero between pivots: whoever reads an entry clears it.
	alpha []float64
	// refactorBackoff postpones the next refactorization attempt after a
	// numerically singular rebuild, so a bad basis cannot trigger an
	// O(m^3) retry on every pivot.
	refactorBackoff int
	// scratch buffers: pi, u and rho are m-vectors; nzBuf lists the
	// columns of the pivot row (room for every nonzero of A); c1 is the
	// phase-1 cost vector.
	pi, u, rho []float64
	nzBuf      []int
	c1         []float64
	// warm-start scratch, reused across solves (see warmStart).
	wantedBuf []bool
}

// init (re)binds the state to a standard form and factorization, reusing
// the state's own storage from a previous solve where possible. Every
// field is reset: recycled buffers carry stale contents.
func (st *simplexState) init(sf *standardForm, fac *factor) {
	m := sf.m
	st.sf = sf
	fac.init(m)
	st.fac = fac
	st.basis = growInts(st.basis, m)
	st.inBas = growBools(st.inBas, sf.nTotal)
	st.xB = growFloats(st.xB, m)
	st.d = growFloats(st.d, sf.nTotal)
	st.alpha = growFloats(st.alpha, sf.nTotal)
	clear(st.alpha)
	st.nzBuf = growInts(st.nzBuf, len(sf.a.ri))
	st.pi = growFloats(st.pi, m)
	st.u = growFloats(st.u, m)
	st.rho = growFloats(st.rho, m)
	st.iters = 0
	st.refactorBackoff = 0
	st.resetToBasis0()
}

// resetToBasis0 restores the default slack/artificial basis: the basis
// matrix is the identity (up to unit columns), so B^{-1} = I and xB = b.
func (st *simplexState) resetToBasis0() {
	sf := st.sf
	st.fac.reset()
	for j := range st.inBas {
		st.inBas[j] = false
	}
	for i := 0; i < sf.m; i++ {
		st.basis[i] = sf.basis0[i]
		st.inBas[sf.basis0[i]] = true
		st.xB[i] = sf.b[i]
	}
}

// ftran computes u = B^{-1} A_j.
func (st *simplexState) ftran(j int, u []float64) {
	st.fac.ftranCol(st.sf.a, j, u)
}

// warmStart replays a resolved warm basis onto the default basis: each
// wanted column is pivoted in against a replaceable position (one still
// holding a default filler that the warm basis does not want), choosing
// the largest available pivot — Gaussian elimination with restricted
// partial pivoting, one eta per accepted column. Columns that turn out
// linearly dependent are skipped; rows left uncovered keep their
// slack/artificial filler. It reports whether the resulting basis is
// primal feasible (xB >= 0); on false the caller must reset the state.
func (st *simplexState) warmStart(cols []int) bool {
	sf := st.sf
	m := sf.m
	st.wantedBuf = growBools(st.wantedBuf, sf.nTotal)
	wanted := st.wantedBuf
	for j := range wanted {
		wanted[j] = false
	}
	for _, j := range cols {
		wanted[j] = true
	}
	u := st.u
	for _, j := range cols {
		if st.inBas[j] {
			continue
		}
		st.ftran(j, u)
		leave := -1
		best := factorPivotTol
		for i := 0; i < m; i++ {
			if wanted[st.basis[i]] {
				continue
			}
			if v := math.Abs(u[i]); v > best {
				best = v
				leave = i
			}
		}
		if leave < 0 {
			continue // dependent on the columns already installed
		}
		st.fac.update(u, leave)
		st.inBas[st.basis[leave]] = false
		st.inBas[j] = true
		st.basis[leave] = j
	}
	st.fac.ftranVec(sf.b, st.xB)
	for i := range st.xB {
		if st.xB[i] < -feasTol {
			return false
		}
		if st.xB[i] < 0 {
			st.xB[i] = 0
		}
	}
	return true
}

// slackRestore is the cheap first stage of warm-basis repair: dual pivots
// whose entering column is restricted to nonbasic slack/surplus columns.
// A slack is a unit column, so its pivot-row coefficient is just
// +/-rho[row] and its reduced cost reads off pi — each pivot costs one
// btran plus O(m), with no sweep over the structural columns. A
// branch-and-bound child's seed violates only its appended bound row, and
// this stage is what keeps its repair within the cold solve's pivot count:
// with the full dual simplex alone, TestWarmStartAppendedRow finds a child
// whose warm solve takes more pivots than its cold one. Restricting the
// ratio test to slacks can break dual feasibility of the shifted costs,
// which costs extra phase-2 pivots but never correctness (phase 2
// reoptimizes with the true costs from whatever feasible basis results).
// It reports whether it reached primal feasibility within its budget.
func (st *simplexState) slackRestore() bool {
	sf := st.sf
	m := sf.m
	// pi prices the current basis under the true costs; maintained
	// incrementally across pivots (pi' = pi + step*rho).
	pi := st.pi
	for i := 0; i < m; i++ {
		pi[i] = sf.c[st.basis[i]]
	}
	st.fac.btran(pi)
	u := st.u
	rho := st.rho
	budget := m
	for iter := 0; iter < budget; iter++ {
		leave := -1
		worst := -feasTol
		for i := 0; i < m; i++ {
			if st.xB[i] < worst {
				worst = st.xB[i]
				leave = i
			}
		}
		if leave < 0 {
			for i := range st.xB {
				if st.xB[i] < 0 {
					st.xB[i] = 0
				}
			}
			return true
		}

		for i := range rho {
			rho[i] = 0
		}
		rho[leave] = 1
		st.fac.btran(rho)

		// Entering slack: min ratio rc/-alpha over nonbasic slacks with
		// alpha < 0, both read in O(1) per row (slack of row k is a unit
		// column with entry sgn at k, so alpha = sgn*rho[k] and
		// rc = -sgn*pi[k]; negative rc means the shifted-cost dual
		// feasibility is already gone and counts as 0).
		enter := -1
		var best, enterAlpha, enterRC float64
		for k := 0; k < m; k++ {
			j := sf.slackCol[k]
			if j < 0 || st.inBas[j] {
				continue
			}
			_, vals := sf.a.col(j)
			sgn := vals[0]
			alpha := sgn * rho[k]
			if alpha >= -pivotTol {
				continue
			}
			rc := -sgn * pi[k]
			if rc < 0 {
				rc = 0
			}
			if ratio := rc / -alpha; enter == -1 || ratio < best {
				best, enter, enterAlpha, enterRC = ratio, j, alpha, rc
			}
		}
		if enter < 0 {
			return false // no slack qualifies; caller escalates
		}

		st.ftran(enter, u)
		if math.Abs(u[leave]) <= pivotTol {
			return false
		}
		theta := st.xB[leave] / u[leave]
		for i := 0; i < m; i++ {
			if i == leave {
				continue
			}
			st.xB[i] -= theta * u[i]
			if st.xB[i] < 0 && st.xB[i] > -feasTol {
				st.xB[i] = 0
			}
		}
		st.xB[leave] = theta
		st.iters++

		step := enterRC / enterAlpha
		for i := 0; i < m; i++ {
			pi[i] += step * rho[i]
		}

		st.fac.update(u, leave)
		st.inBas[st.basis[leave]] = false
		st.inBas[enter] = true
		st.basis[leave] = enter
		if st.fac.size() >= refactorLimit(m) {
			st.refactorize()
			// Refactorization clears roundoff; pi stays valid because the
			// basis itself did not change.
		}
	}
	return false
}

// dualRestore repairs a primal-infeasible warm basis with dual simplex
// pivots instead of discarding it. This is the payoff case for branch and
// bound: a node's seed is its parent's optimal basis plus the slack of its
// one new bound row, a basis of the node's LP that only that row makes
// primal infeasible, so a handful of dual pivots restore feasibility
// (TestWarmStartAppendedRow pins that the warm solve never takes more
// pivots than the cold one). slackRestore runs first; if some violated row
// cannot be repaired by re-entering a slack, the full dual simplex below
// takes over from wherever it stopped. The true costs need not price the
// warm basis dual feasible (a seed may come from a problem with other
// objective coefficients), so nonbasic reduced costs are first shifted up
// to zero — the basis is then dual feasible by construction, dual pivots
// restore xB >= 0, and phase 2 reoptimizes with the true costs from the
// repaired basis. It reports success; on false the caller must reset to a
// cold start.
func (st *simplexState) dualRestore() bool {
	sf := st.sf
	m := sf.m
	if st.anyArtificialBasic() {
		return false
	}
	if st.slackRestore() {
		return true
	}
	// Reduced costs of every non-artificial column, shifted up to zero
	// where negative so the warm basis starts dual feasible. The vector is
	// then maintained incrementally across pivots (the alpha row needed
	// for the update is computed by the ratio test anyway), so each dual
	// iteration costs one btran plus one sweep of column dots. Both live
	// in the state's reduced-cost and pivot-row buffers; phase 2 reprices
	// from scratch, and the pivot row must be left zero.
	pi := st.pi
	for i := 0; i < m; i++ {
		pi[i] = sf.c[st.basis[i]]
	}
	st.fac.btran(pi)
	rc := st.d[:sf.artStart]
	for j := range rc {
		rc[j] = 0
		if st.inBas[j] {
			continue
		}
		if v := sf.c[j] - sf.a.dot(pi, j); v > 0 {
			rc[j] = v
		}
	}

	u := st.u
	rho := st.rho
	alpha := st.alpha[:sf.artStart]
	defer clear(alpha)
	budget := 2*m + 50
	for iter := 0; iter < budget; iter++ {
		// Leaving row: the most negative basic value.
		leave := -1
		worst := -feasTol
		for i := 0; i < m; i++ {
			if st.xB[i] < worst {
				worst = st.xB[i]
				leave = i
			}
		}
		if leave < 0 {
			for i := range st.xB {
				if st.xB[i] < 0 {
					st.xB[i] = 0
				}
			}
			return true
		}

		for i := range rho {
			rho[i] = 0
		}
		rho[leave] = 1
		st.fac.btran(rho)

		// Dual ratio test: entering column minimizes rc_j / -alpha_j over
		// nonbasic non-artificial columns with alpha_j < 0, keeping every
		// reduced cost nonnegative after the pivot.
		enter := -1
		var best float64
		for j := 0; j < sf.artStart; j++ {
			if st.inBas[j] {
				continue
			}
			a := sf.a.dot(rho, j)
			alpha[j] = a
			if a >= -pivotTol {
				continue
			}
			if ratio := rc[j] / -a; enter == -1 || ratio < best {
				best = ratio
				enter = j
			}
		}
		if enter < 0 {
			// No eligible pivot: the row certifies primal infeasibility
			// for this basis path; let the cold start decide.
			return false
		}

		st.ftran(enter, u)
		if math.Abs(u[leave]) <= pivotTol {
			return false
		}
		theta := st.xB[leave] / u[leave]
		for i := 0; i < m; i++ {
			if i == leave {
				continue
			}
			st.xB[i] -= theta * u[i]
			if st.xB[i] < 0 && st.xB[i] > -feasTol {
				st.xB[i] = 0
			}
		}
		st.xB[leave] = theta
		st.iters++

		// rc'_j = rc_j - (rc_q/alpha_q) alpha_j; the leaving variable goes
		// nonbasic at -rc_q/alpha_q >= 0, the entering one to zero.
		stepD := rc[enter] / alpha[enter]
		for j := 0; j < sf.artStart; j++ {
			if st.inBas[j] || j == enter {
				continue
			}
			if v := rc[j] - stepD*alpha[j]; v > 0 {
				rc[j] = v
			} else {
				rc[j] = 0
			}
		}
		if out := st.basis[leave]; out < sf.artStart {
			if v := -stepD; v > 0 {
				rc[out] = v
			} else {
				rc[out] = 0
			}
		}
		rc[enter] = 0

		st.fac.update(u, leave)
		st.inBas[st.basis[leave]] = false
		st.inBas[enter] = true
		st.basis[leave] = enter
		if st.fac.size() >= refactorLimit(m) {
			st.refactorize()
		}
	}
	return false
}

// refactorize periodically rebuilds the reference inverse from the basis
// columns and recomputes xB from scratch, clearing accumulated eta
// roundoff. A numerically singular rebuild (which a valid basis should
// never produce) leaves the product form in place.
func (st *simplexState) refactorize() {
	if st.refactorBackoff > 0 {
		st.refactorBackoff--
		return
	}
	if !st.fac.refactorize(st.sf.a, st.basis) {
		st.refactorBackoff = refactorLimit(st.sf.m)
		return
	}
	st.fac.ftranVec(st.sf.b, st.xB)
	for i := range st.xB {
		if st.xB[i] < 0 && st.xB[i] > -feasTol {
			st.xB[i] = 0
		}
	}
}

// price computes pi = c_B^T B^{-1} with one btran and from it the reduced
// cost of every column below limit, zero for basic ones: the full pricing
// each phase starts from and every optimality verdict rests on.
func (st *simplexState) price(c []float64, limit int) {
	sf := st.sf
	pi := st.pi
	for i := 0; i < sf.m; i++ {
		pi[i] = c[st.basis[i]]
	}
	st.fac.btran(pi)
	d := st.d[:limit]
	for j := range d {
		if st.inBas[j] {
			d[j] = 0
			continue
		}
		d[j] = c[j] - sf.a.dot(pi, j)
	}
}

// pivotRow accumulates the pivot row alpha_r = e_r^T B^{-1} A into
// st.alpha at every column below limit, basic ones included: one btran
// for rho = e_r^T B^{-1}, then A's rows summed over rho's nonzeros. It
// returns the touched columns. A column is listed again if its sum
// returned to exactly zero before another row touched it, so a reader
// clears each entry as it consumes it and a repeat reads zero.
func (st *simplexState) pivotRow(r, limit int) []int {
	rho := st.rho
	clear(rho)
	rho[r] = 1
	st.fac.btran(rho)
	at := &st.sf.at
	alpha := st.alpha
	nz := st.nzBuf[:cap(st.nzBuf)]
	n := 0
	for i, ri := range rho {
		if ri == 0 {
			continue
		}
		cols, vals := at.ci[at.ptr[i]:at.ptr[i+1]], at.vx[at.ptr[i]:at.ptr[i+1]]
		vals = vals[:len(cols)]
		for k, j := range cols {
			if j >= limit {
				break // columns ascend; the rest are barred artificials
			}
			// Listing j only when it was untouched, without a branch: the
			// slot is written either way and kept only then.
			nz[n] = j
			if alpha[j] == 0 {
				n++
			}
			alpha[j] += ri * vals[k]
		}
	}
	return nz[:n]
}

// applyPivot moves the reduced costs across the pivot just made: q =
// enter came in, out left, nz/st.alpha is the pivot row (cleared here) and
// step = d_q/alpha_q. Every nonbasic column moves by d_j -= step*alpha_j
// and out becomes nonbasic at -step; q's reduced cost becomes 0, as every
// basic column's is.
func (st *simplexState) applyPivot(nz []int, enter, out, limit int, step float64) {
	d, alpha, inBas := st.d, st.alpha, st.inBas
	for _, j := range nz {
		a := alpha[j]
		alpha[j] = 0
		if !inBas[j] {
			d[j] -= step * a
		}
	}
	d[enter] = 0
	if out < limit {
		d[out] = -step
	}
}

// chooseEntering picks the entering column below limit: the one with the
// most negative reduced cost, or under Bland's rule the first improving
// column (anti-cycling). It returns -1 when no d_j is below
// -reducedCostTol; basic columns hold d = 0, so they never qualify. The
// scan runs from the last column down, so among tied reduced costs the
// highest index wins: LP-PT relaxations tie often (requests with equal
// demand distributions build equal columns), and that choice takes fewer
// pivots than the lowest index — 9 against 16 on the captured churn_mesh
// slot LP in testdata, 110 against 128 a cold solve on
// BenchmarkLPColdVsWarm's sequence.
func (st *simplexState) chooseEntering(limit int, bland bool) int {
	d := st.d[:limit]
	if bland {
		for j, dj := range d {
			if dj < -reducedCostTol {
				return j
			}
		}
		return -1
	}
	enter, best := -1, -reducedCostTol
	for j := len(d) - 1; j >= 0; j-- {
		if d[j] < best {
			enter, best = j, d[j]
		}
	}
	return enter
}

// run performs simplex iterations on the cost vector c until optimality,
// unboundedness, or the iteration budget is exhausted. allowArt controls
// whether artificial columns may (re-)enter the basis — true only in
// phase 1. Pricing reads the updated reduced costs; a verdict of optimal
// or unbounded is only returned from freshly priced ones, so roundoff
// drift in the updates can cost a pivot but never end a solve early.
func (st *simplexState) run(c []float64, maxIters int, allowArt bool) Status {
	m := st.sf.m
	u := st.u
	limit := st.sf.nTotal
	if !allowArt {
		limit = st.sf.artStart
	}
	st.price(c, limit)
	fresh := true
	degenerate := 0
	for st.iters < maxIters {
		bland := degenerate >= degenerateLimit
		enter := st.chooseEntering(limit, bland)
		if enter < 0 && !fresh {
			st.price(c, limit)
			fresh = true
			enter = st.chooseEntering(limit, bland)
		}
		if enter < 0 {
			return StatusOptimal
		}

		// Direction and ratio test.
		st.ftran(enter, u)
		leave := -1
		var theta float64
		for i := 0; i < m; i++ {
			if u[i] <= pivotTol {
				continue
			}
			ratio := st.xB[i] / u[i]
			if ratio < -feasTol {
				ratio = 0
			}
			if leave == -1 || ratio < theta-pivotTol ||
				(ratio < theta+pivotTol && st.basis[i] < st.basis[leave]) {
				leave = i
				theta = ratio
			}
		}
		if leave == -1 {
			if fresh {
				return StatusUnbounded
			}
			st.price(c, limit)
			fresh = true
			continue
		}
		if theta < feasTol {
			degenerate++
		} else {
			degenerate = 0
		}

		nz := st.pivotRow(leave, limit)
		step := st.d[enter] / u[leave]
		out := st.basis[leave]

		// Pivot: update xB, append the eta factor, adjust bookkeeping.
		for i := 0; i < m; i++ {
			if i == leave {
				continue
			}
			st.xB[i] -= theta * u[i]
			if st.xB[i] < 0 && st.xB[i] > -feasTol {
				st.xB[i] = 0
			}
		}
		st.xB[leave] = theta

		st.fac.update(u, leave)
		st.inBas[out] = false
		st.inBas[enter] = true
		st.basis[leave] = enter
		st.iters++

		st.applyPivot(nz, enter, out, limit, step)
		fresh = false
		if st.fac.size() >= refactorLimit(m) {
			st.refactorize()
			st.price(c, limit)
			fresh = true
		}
	}
	return StatusIterLimit
}

// SolveOptions tunes the solver.
type SolveOptions struct {
	// MaxIterations caps total simplex pivots. Zero selects an automatic
	// budget of 200*(m+50) per phase.
	MaxIterations int
	// WarmStart seeds the solve from the basis of a previous solution
	// (Solution.Basis) of a problem whose variables and rows sit where
	// this one's do — a branch-and-bound node's parent, or the same
	// problem with drifted coefficients. Basis columns are matched by
	// position; entries out of range are dropped. A seeded basis that is
	// primal infeasible for this problem is repaired with dual simplex
	// pivots; if the repair fails the solver falls back to a cold start.
	// Warm starting never changes the result — only the iteration count.
	WarmStart *Basis
}

// Solve optimizes the problem as a continuous LP (integrality markers are
// ignored). It never returns an error for well-formed problems; infeasible
// and unbounded outcomes are reported in Solution.Status.
func (p *Problem) Solve() (*Solution, error) {
	return p.SolveWithOptions(SolveOptions{})
}

// SolveWithOptions is Solve with explicit tuning parameters.
func (p *Problem) SolveWithOptions(opts SolveOptions) (*Solution, error) {
	if len(p.cols) == 0 {
		return nil, ErrNoVariables
	}
	sc := scratchPool.Get().(*solveScratch)
	defer scratchPool.Put(sc)
	return p.solveIn(sc, opts), nil
}

// solveIn lowers p into the given scratch and runs the simplex on it.
// Whatever the scratch held from earlier solves, a cold solve's result
// depends on p alone.
func (p *Problem) solveIn(sc *solveScratch, opts SolveOptions) *Solution {
	sf := p.toStandard(&sc.sf)
	status := sc.simplex(opts)
	st := &sc.st
	sol := &Solution{Status: status, Iterations: st.iters, Nodes: 1}
	if status != StatusOptimal {
		return sol
	}
	sol.X = make([]float64, sf.n)
	obj := sc.primal(sol.X)
	if p.sense == Maximize {
		obj = -obj
	}
	sol.Objective = obj

	// Dual values: pi = c_B B^{-1} prices the internal rows (the optimal
	// verdict came from a fresh pricing, so st.pi is this basis's); undo
	// the sense negation and any row sign flips so Dual[i] =
	// dObjective/db_i for the caller's row i.
	pi := st.pi
	sol.Dual = make([]float64, sf.m)
	for i := range sol.Dual {
		d := pi[i]
		if p.sense == Maximize {
			d = -d
		}
		if sf.flipped[i] {
			d = -d
		}
		sol.Dual[i] = d
	}
	sol.Basis = captureBasis(sf, st.basis)
	return sol
}

// simplex is the one simplex entry: it runs the two phases on the
// standard form the scratch holds (written and finished), from its
// default basis or from opts.WarmStart.
func (sc *solveScratch) simplex(opts SolveOptions) Status {
	sf := &sc.sf
	st := &sc.st
	st.init(sf, &sc.fac)
	maxIters := opts.MaxIterations
	if maxIters == 0 {
		maxIters = 200 * (sf.m + 50)
	}

	if opts.WarmStart != nil {
		if cols := sf.resolveBasis(opts.WarmStart); len(cols) > 0 {
			if !st.warmStart(cols) && !st.dualRestore() {
				// The seed could not be repaired: discard and start cold.
				st.resetToBasis0()
			}
		}
	}

	// Phase 1: needed only while some artificial is basic at a nonzero
	// value (a warm start, or an all-slack start of a pure <= problem,
	// skips it entirely).
	if st.needsPhase1() {
		st.c1 = growFloats(st.c1, sf.nTotal)
		c1 := st.c1
		for j := range c1 {
			c1[j] = 0
			if j >= sf.artStart {
				c1[j] = 1
			}
		}
		status := st.run(c1, maxIters, true)
		if status == StatusIterLimit {
			return StatusIterLimit
		}
		// Infeasible if any artificial remains positive.
		artSum := 0.0
		for i, bj := range st.basis {
			if bj >= sf.artStart {
				artSum += st.xB[i]
			}
		}
		if artSum > artValueTol {
			return StatusInfeasible
		}
	}
	// Pivot out any artificial stuck in the basis at value zero so that
	// phase 2 cannot drift it away from zero.
	if st.anyArtificialBasic() {
		st.purgeArtificials()
	}

	// Phase 2.
	maxIters += st.iters
	return st.run(sf.c, maxIters, false)
}

// primal writes the optimal value of every structural column into x
// (length n; nonbasic columns 0) and returns the standard form's objective
// c'x, summed in basis order.
func (sc *solveScratch) primal(x []float64) float64 {
	sf, st := &sc.sf, &sc.st
	clear(x)
	obj := 0.0
	for i, bj := range st.basis {
		if bj < sf.n {
			v := st.xB[i]
			if v < 0 && v > -feasTol {
				v = 0
			}
			x[bj] = v
		}
		obj += sf.c[bj] * st.xB[i]
	}
	return obj
}

// needsPhase1 reports whether some artificial variable is basic above the
// feasibility tolerance.
func (st *simplexState) needsPhase1() bool {
	for i, bj := range st.basis {
		if bj >= st.sf.artStart && st.xB[i] > artValueTol {
			return true
		}
	}
	return false
}

// anyArtificialBasic reports whether an artificial occupies any basis
// position (at whatever value).
func (st *simplexState) anyArtificialBasic() bool {
	for _, bj := range st.basis {
		if bj >= st.sf.artStart {
			return true
		}
	}
	return false
}

// purgeArtificials removes zero-valued artificial variables from the basis
// by pivoting in any non-artificial column with a nonzero entry in that
// basis row; if none exists the row is redundant and the artificial stays
// at zero harmlessly (it is cost-zero in phase 2 and barred from pricing).
func (st *simplexState) purgeArtificials() {
	m := st.sf.m
	u := st.u
	for i := 0; i < m; i++ {
		if st.basis[i] < st.sf.artStart {
			continue
		}
		// Find a replacement column with |(B^{-1}A_j)_i| above tolerance.
		for j := 0; j < st.sf.artStart; j++ {
			if st.inBas[j] {
				continue
			}
			st.ftran(j, u)
			if math.Abs(u[i]) <= pivotTol {
				continue
			}
			// Pivot j in at row i (degenerate pivot: xB[i] == 0).
			st.fac.update(u, i)
			st.inBas[st.basis[i]] = false
			st.inBas[j] = true
			st.basis[i] = j
			if st.fac.size() >= refactorLimit(m) {
				st.refactorize()
			}
			break
		}
	}
}
