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
	// from devex pricing to Bland's anti-cycling rule.
	degenerateLimit = 64
	// pricingWindow: once an improving column has been found, partial
	// pricing stops scanning after this many further candidates. The
	// cursor rotates so all columns are eventually priced, preserving
	// optimality detection (a full silent sweep proves optimality).
	pricingWindow = 512
	// devexResetRatio: when the reference weight carried into a pivot
	// exceeds this, the devex reference framework is reset to unit
	// weights (the standard guard against unbounded weight growth).
	devexResetRatio = 1e10
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
	// conversion scratch, reused across solves (see toStandard): each
	// row's operator after sign normalization, and the slack that can start
	// in the basis (-1 for none).
	opsBuf        []Op
	slackBasisBuf []int
	// resolve scratch, reused across solves (see resolveBasis).
	colsBuf     []int
	claimedBuf  []bool
	missBuf     []basisEntry
	resolvedBuf []int
}

// toStandard converts the builder problem into sf, reusing whatever
// storage sf already carries (it may be a recycled scratch or a zero
// value). Maximization is handled by negating the objective.
func (p *Problem) toStandard(sf *standardForm) *standardForm {
	m, n := len(p.rows), len(p.cols)
	sf.m, sf.n = m, n
	sf.b = growFloats(sf.b, m)
	sf.flipped = growBools(sf.flipped, m)
	flip := sf.flipped
	if cap(sf.opsBuf) < m {
		sf.opsBuf = make([]Op, m)
	}
	ops := sf.opsBuf[:m]
	for i := range p.rows {
		r := &p.rows[i]
		rhs, op := r.rhs, r.op
		neg := rhs < 0
		if neg {
			rhs = -rhs
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		flip[i] = neg
		sf.b[i] = rhs
		ops[i] = op
	}

	if sf.a == nil {
		sf.a = &csc{}
	}
	sf.a.ptr = append(sf.a.ptr[:0], 0)
	sf.a.ri = sf.a.ri[:0]
	sf.a.vx = sf.a.vx[:0]
	sf.c = sf.c[:0]
	sf.colRow = sf.colRow[:0]
	sign := 1.0
	if p.sense == Maximize {
		sign = -1
	}
	for j := range p.cols {
		col := &p.cols[j]
		for _, e := range col.entries {
			coef := e.coef
			if flip[e.row] {
				coef = -coef
			}
			sf.a.push(e.row, coef)
		}
		sf.a.endCol()
		sf.c = append(sf.c, sign*col.obj)
		sf.colRow = append(sf.colRow, -1)
	}

	// Slack/surplus columns. A slack on a <= row (rhs >= 0) can start in
	// the basis; a surplus on a >= row cannot (it would be negative).
	sf.slackBasisBuf = growInts(sf.slackBasisBuf, m)
	slackBasis := sf.slackBasisBuf
	sf.slackCol = growInts(sf.slackCol, m)
	for i := range slackBasis {
		slackBasis[i] = -1
		sf.slackCol[i] = -1
	}
	for i, op := range ops {
		switch op {
		case LE:
			sf.a.appendUnit(i, 1)
			sf.c = append(sf.c, 0)
			sf.colRow = append(sf.colRow, i)
			sf.slackCol[i] = sf.a.numCols() - 1
			slackBasis[i] = sf.slackCol[i]
		case GE:
			sf.a.appendUnit(i, -1)
			sf.c = append(sf.c, 0)
			sf.colRow = append(sf.colRow, i)
			sf.slackCol[i] = sf.a.numCols() - 1
		case EQ:
			// no slack
		}
	}

	// Artificials for rows without a basic slack.
	sf.artStart = sf.a.numCols()
	sf.basis0 = growInts(sf.basis0, m)
	for i := range sf.basis0 {
		if slackBasis[i] >= 0 {
			sf.basis0[i] = slackBasis[i]
			continue
		}
		sf.a.appendUnit(i, 1)
		sf.c = append(sf.c, 0)
		sf.colRow = append(sf.colRow, i)
		sf.basis0[i] = sf.a.numCols() - 1
	}
	sf.nTotal = sf.a.numCols()
	return sf
}

// simplexState is the mutable state of a revised-simplex run.
type simplexState struct {
	sf     *standardForm
	fac    *factor   // B^{-1} in product form (reference inverse + etas)
	basis  []int     // basis[i] = column occupying basis position i
	inBas  []bool    // inBas[j] = column j currently basic
	xB     []float64 // current basic variable values
	iters  int
	cursor int // rotating partial-pricing start column
	// devex reference weights, one per column (reset to 1 with each new
	// reference framework).
	weights []float64
	// refactorBackoff postpones the next refactorization attempt after a
	// numerically singular rebuild, so a bad basis cannot trigger an
	// O(m^3) retry on every pivot.
	refactorBackoff int
	// scratch buffers.
	pi, u, rho []float64
	candBuf    []int
	// warm-start scratch, reused across solves (see warmStart).
	wantedBuf []bool
	rowCntBuf []int
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
	st.weights = growFloats(st.weights, sf.nTotal)
	st.pi = growFloats(st.pi, m)
	st.u = growFloats(st.u, m)
	st.rho = growFloats(st.rho, m)
	st.iters = 0
	st.cursor = 0
	st.refactorBackoff = 0
	st.candBuf = st.candBuf[:0]
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
	st.resetWeights()
}

func (st *simplexState) resetWeights() {
	for j := range st.weights {
		st.weights[j] = 1
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
	// rowCount[i] = wanted columns with a nonzero in row i. A row counted
	// once is private to its column; pivoting there produces an eta whose
	// fill is just the column's other nonzeros. Preferring private rows
	// keeps the replayed eta file near-diagonal — in the LP-PT bases most
	// basic columns are y variables whose assignment row is theirs alone,
	// so without the preference the magnitude rule tends to pivot them on
	// shared capacity rows and the eta file densifies, taxing every ftran
	// and btran of the solve that follows.
	st.rowCntBuf = growInts(st.rowCntBuf, m)
	rowCount := st.rowCntBuf
	for i := range rowCount {
		rowCount[i] = 0
	}
	for _, j := range cols {
		rows, _ := sf.a.col(j)
		for _, r := range rows {
			rowCount[r]++
		}
	}
	u := st.u
	for _, j := range cols {
		if st.inBas[j] {
			continue
		}
		st.ftran(j, u)
		leave := -1
		best := factorPivotTol
		leavePriv := -1
		bestPriv := 1e-3 // private rows still need a well-conditioned pivot
		for i := 0; i < m; i++ {
			if wanted[st.basis[i]] {
				continue
			}
			v := math.Abs(u[i])
			if v > best {
				best = v
				leave = i
			}
			if rowCount[i] == 1 && v > bestPriv {
				bestPriv = v
				leavePriv = i
			}
		}
		if leavePriv >= 0 {
			leave = leavePriv
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
// btran plus O(m), with no sweep over the structural columns. This is
// exactly the repair the per-slot LP-PT sequence needs: residual
// capacities shrank, so the violated rows are capacity rows whose slack
// re-enters while the displaced assignment mass leaves. Restricting the
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
// pivots instead of discarding it. This is the payoff case for warm
// starting the per-slot LP-PT sequence: residual capacities only shrink
// from slot to slot, so the previous slot's optimal vertex is almost
// always (slightly) primal infeasible in the next slot's LP, yet only a
// handful of dual pivots away from feasibility. slackRestore runs first;
// if some violated row cannot be repaired by re-entering a slack, the
// full dual simplex below takes over from wherever it stopped. The true
// costs need not price the warm basis dual feasible (objective
// coefficients drift too), so nonbasic reduced costs are first shifted up
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
	// iteration costs one btran plus one sweep of column dots.
	pi := st.pi
	for i := 0; i < m; i++ {
		pi[i] = sf.c[st.basis[i]]
	}
	st.fac.btran(pi)
	rc := make([]float64, sf.artStart)
	for j := range rc {
		if st.inBas[j] {
			continue
		}
		if v := sf.c[j] - sf.a.dot(pi, j); v > 0 {
			rc[j] = v
		}
	}

	u := st.u
	rho := st.rho
	alpha := make([]float64, sf.artStart)
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

// priceDevex scans columns from the rotating cursor and returns the
// improving column with the best devex score rc^2/weight (-1 if none,
// proving optimality). Scanned improving candidates are appended to
// st.candBuf for the devex weight update of this iteration.
func (st *simplexState) priceDevex(c []float64, limit int) int {
	enter := -1
	bestScore := 0.0
	st.candBuf = st.candBuf[:0]
	sinceFound := 0
	for scanned := 0; scanned < limit; scanned++ {
		j := st.cursor + scanned
		if j >= limit {
			j -= limit
		}
		if st.inBas[j] {
			continue
		}
		rc := c[j] - st.sf.a.dot(st.pi, j)
		if rc < -reducedCostTol {
			if len(st.candBuf) < 2*pricingWindow {
				st.candBuf = append(st.candBuf, j)
			}
			score := rc * rc / st.weights[j]
			if score > bestScore {
				bestScore = score
				enter = j
			}
		}
		if enter >= 0 {
			sinceFound++
			if sinceFound >= pricingWindow {
				st.cursor = j + 1
				if st.cursor >= limit {
					st.cursor = 0
				}
				break
			}
		}
	}
	return enter
}

// updateDevex refreshes the reference weights after choosing pivot
// (enter, leave) with direction u: the classic devex recurrence applied
// to this iteration's scanned candidates (partial pricing keeps the
// remaining weights as-is; staleness only affects pivot choice, never
// correctness). It returns true if the reference framework was reset.
func (st *simplexState) updateDevex(enter, leave int, u []float64) bool {
	alphaQ := u[leave]
	wq := st.weights[enter]
	ratio := wq / (alphaQ * alphaQ)
	if ratio > devexResetRatio {
		st.resetWeights()
		return true
	}
	// rho = e_leave^T B^{-1}: one btran gives the pivot-row alphas.
	rho := st.rho
	for i := range rho {
		rho[i] = 0
	}
	rho[leave] = 1
	st.fac.btran(rho)
	for _, j := range st.candBuf {
		if j == enter || st.inBas[j] {
			continue
		}
		alpha := st.sf.a.dot(rho, j)
		if w := alpha * alpha * ratio; w > st.weights[j] {
			st.weights[j] = w
		}
	}
	wLeave := ratio
	if wLeave < 1 {
		wLeave = 1
	}
	st.weights[st.basis[leave]] = wLeave
	return false
}

// run performs simplex iterations on the cost vector c until optimality,
// unboundedness, or the iteration budget is exhausted. allowArt controls
// whether artificial columns may (re-)enter the basis — true only in
// phase 1.
func (st *simplexState) run(c []float64, maxIters int, allowArt bool) Status {
	m := st.sf.m
	pi := st.pi
	u := st.u
	degenerate := 0

	for ; st.iters < maxIters; st.iters++ {
		// pi = c_B^T B^{-1} via one btran of the basic costs.
		for i := 0; i < m; i++ {
			pi[i] = c[st.basis[i]]
		}
		st.fac.btran(pi)

		// Pricing. Bland's rule scans in index order (anti-cycling);
		// otherwise devex partial pricing from the rotating cursor. A
		// full sweep with no improving column proves optimality either
		// way.
		enter := -1
		useBland := degenerate >= degenerateLimit
		limit := st.sf.nTotal
		if !allowArt {
			limit = st.sf.artStart
		}
		if useBland {
			for j := 0; j < limit; j++ {
				if st.inBas[j] {
					continue
				}
				if c[j]-st.sf.a.dot(pi, j) < -reducedCostTol {
					enter = j
					break
				}
			}
		} else {
			enter = st.priceDevex(c, limit)
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
			return StatusUnbounded
		}
		if theta < feasTol {
			degenerate++
		} else {
			degenerate = 0
		}

		if !useBland {
			st.updateDevex(enter, leave, u)
		}

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
		st.inBas[st.basis[leave]] = false
		st.inBas[enter] = true
		st.basis[leave] = enter

		if st.fac.size() >= refactorLimit(m) {
			st.refactorize()
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
	// (Solution.Basis), typically of a structurally similar problem: the
	// previous time slot's LP-PT, the previous rounding pass, the same
	// grid cell's previous repetition, or a branch-and-bound parent node.
	// Basis columns are matched by index and name; entries that no longer
	// resolve are dropped. A seeded basis that is primal infeasible for
	// this problem is repaired with dual simplex pivots; if the repair
	// fails the solver falls back to a cold start. Warm starting never
	// changes the result — only the iteration count.
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
	if fixed, n := p.detectFixedZero(); n > 0 {
		return p.solveReduced(fixed, opts)
	}
	return p.solveDirect(opts)
}

// solveDirect runs the two-phase simplex without the presolve step.
func (p *Problem) solveDirect(opts SolveOptions) (*Solution, error) {
	sc := scratchPool.Get().(*solveScratch)
	defer scratchPool.Put(sc)
	sf := p.toStandard(&sc.sf)
	st := &sc.st
	st.init(sf, &sc.fac)
	maxIters := opts.MaxIterations
	if maxIters == 0 {
		maxIters = 200 * (sf.m + 50)
	}

	if opts.WarmStart != nil {
		if cols := sf.resolveBasis(p, opts.WarmStart); len(cols) > 0 {
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
		c1 := make([]float64, sf.nTotal)
		for j := sf.artStart; j < sf.nTotal; j++ {
			c1[j] = 1
		}
		status := st.run(c1, maxIters, true)
		if status == StatusIterLimit {
			return &Solution{Status: StatusIterLimit, Iterations: st.iters, Nodes: 1}, nil
		}
		// Infeasible if any artificial remains positive.
		artSum := 0.0
		for i, bj := range st.basis {
			if bj >= sf.artStart {
				artSum += st.xB[i]
			}
		}
		if artSum > artValueTol {
			return &Solution{Status: StatusInfeasible, Iterations: st.iters, Nodes: 1}, nil
		}
	}
	// Pivot out any artificial stuck in the basis at value zero so that
	// phase 2 cannot drift it away from zero.
	if st.anyArtificialBasic() {
		if err := st.purgeArtificials(); err != nil {
			return &Solution{Status: StatusInfeasible, Iterations: st.iters, Nodes: 1}, nil
		}
	}

	// Phase 2.
	maxIters += st.iters
	st.resetWeights()
	status := st.run(sf.c, maxIters, false)
	sol := &Solution{Status: status, Iterations: st.iters, Nodes: 1}
	if status != StatusOptimal {
		return sol, nil
	}

	sol.X = make([]float64, sf.n)
	obj := 0.0
	for i, bj := range st.basis {
		if bj < sf.n {
			v := st.xB[i]
			if v < 0 && v > -feasTol {
				v = 0
			}
			sol.X[bj] = v
		}
		obj += sf.c[bj] * st.xB[i]
	}
	if p.sense == Maximize {
		obj = -obj
	}
	sol.Objective = obj

	// Dual values: pi = c_B B^{-1} prices the internal rows; undo the
	// sense negation and any row sign flips so Dual[i] = dObjective/db_i
	// for the caller's row i.
	pi := st.dualVector(sf.c)
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
	sol.Basis = captureBasis(p, sf, st.basis)
	return sol, nil
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

// dualVector computes pi = c_B B^{-1} for the current basis.
func (st *simplexState) dualVector(c []float64) []float64 {
	m := st.sf.m
	pi := make([]float64, m)
	for i := 0; i < m; i++ {
		pi[i] = c[st.basis[i]]
	}
	st.fac.btran(pi)
	return pi
}

// purgeArtificials removes zero-valued artificial variables from the basis
// by pivoting in any non-artificial column with a nonzero entry in that
// basis row; if none exists the row is redundant and the artificial stays
// at zero harmlessly (it is cost-zero in phase 2 and barred from pricing).
func (st *simplexState) purgeArtificials() error {
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
	return nil
}
