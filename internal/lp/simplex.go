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
	sf.at.transpose(sf.a, m)
	return sf
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
	// devex reference weights, one per column (reset to 1 with each new
	// reference framework).
	weights []float64
	// score is each column's devex score, (d_j+tol)^2/w_j for an improving
	// column and 0 otherwise, recomputed wherever d_j or w_j moves, so the
	// pricing scan is a bare maximum.
	score []float64
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
	st.d = growFloats(st.d, sf.nTotal)
	st.score = growFloats(st.score, sf.nTotal)
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
	st.rescore(limit)
}

// devexScore is the pricing score of a column with reduced cost d and
// devex weight w: (d+tol)^2/w when the column improves, else 0.
func devexScore(d, w float64) float64 {
	if t := d + reducedCostTol; t < 0 {
		return t * t / w
	}
	return 0
}

// rescore recomputes every column's score below limit from d and the
// weights.
func (st *simplexState) rescore(limit int) {
	d, w := st.d[:limit], st.weights[:limit]
	score := st.score[:limit]
	for j := range score {
		score[j] = devexScore(d[j], w[j])
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

// applyPivot moves the reduced costs, devex weights and scores across the
// pivot just made: q = enter came in, out left, nz/st.alpha is the pivot
// row (cleared here), step = d_q/alpha_q and ratio = w_q/alpha_q^2. Every
// nonbasic column moves by d_j -= step*alpha_j and out becomes nonbasic
// at -step; q's reduced cost becomes 0, as every basic column's is. Unless
// Bland's rule is in force the weights follow the devex recurrence
// w_j = max(w_j, alpha_j^2*ratio), out's becoming max(ratio, 1), or
// reset to 1 when the entering weight has grown too far.
func (st *simplexState) applyPivot(nz []int, enter, out, limit int, step, ratio float64, bland bool) {
	d, w, score, alpha, inBas := st.d, st.weights, st.score, st.alpha, st.inBas
	devex := !bland
	reset := devex && ratio > devexResetRatio
	if reset {
		st.resetWeights()
		devex = false
	}
	for _, j := range nz {
		a := alpha[j]
		alpha[j] = 0
		if inBas[j] {
			continue
		}
		d[j] -= step * a
		if devex {
			w[j] = max(w[j], a*a*ratio)
		}
		score[j] = devexScore(d[j], w[j])
	}
	d[enter], score[enter] = 0, 0
	if out < limit {
		d[out] = -step
		if devex {
			w[out] = max(ratio, 1)
		}
		score[out] = devexScore(d[out], w[out])
	}
	if reset {
		st.rescore(limit)
	}
}

// chooseEntering picks the entering column: the one with the best devex
// score, or under Bland's rule the first improving column (anti-cycling).
// It returns -1 when no column improves; basic columns hold d = 0 and
// score 0, so they never qualify. The scan runs from the last column
// down, so among tied scores the highest index wins: LP-PT relaxations
// tie often (requests with equal demand distributions build equal
// columns), and on the benchmark's slot LPs and the offline relaxations
// that choice takes 15-30 % fewer pivots than the lowest index.
func (st *simplexState) chooseEntering(limit int, bland bool) int {
	if bland {
		for j, dj := range st.d[:limit] {
			if dj < -reducedCostTol {
				return j
			}
		}
		return -1
	}
	score := st.score[:limit]
	enter, best := -1, 0.0
	for j := len(score) - 1; j >= 0; j-- {
		if score[j] > best {
			enter, best = j, score[j]
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
		alphaQ := u[leave]
		step := st.d[enter] / alphaQ
		ratio := st.weights[enter] / (alphaQ * alphaQ)
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

		st.applyPivot(nz, enter, out, limit, step, ratio, bland)
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

// solveDirect runs the two-phase simplex without the presolve step, on a
// scratch from the pool.
func (p *Problem) solveDirect(opts SolveOptions) (*Solution, error) {
	sc := scratchPool.Get().(*solveScratch)
	defer scratchPool.Put(sc)
	return p.solveIn(sc, opts), nil
}

// solveIn is solveDirect on the given scratch. Whatever the scratch held
// from earlier solves, a cold solve's result depends on p alone.
func (p *Problem) solveIn(sc *solveScratch, opts SolveOptions) *Solution {
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
			return &Solution{Status: StatusIterLimit, Iterations: st.iters, Nodes: 1}
		}
		// Infeasible if any artificial remains positive.
		artSum := 0.0
		for i, bj := range st.basis {
			if bj >= sf.artStart {
				artSum += st.xB[i]
			}
		}
		if artSum > artValueTol {
			return &Solution{Status: StatusInfeasible, Iterations: st.iters, Nodes: 1}
		}
	}
	// Pivot out any artificial stuck in the basis at value zero so that
	// phase 2 cannot drift it away from zero.
	if st.anyArtificialBasic() {
		if err := st.purgeArtificials(); err != nil {
			return &Solution{Status: StatusInfeasible, Iterations: st.iters, Nodes: 1}
		}
	}

	// Phase 2.
	maxIters += st.iters
	st.resetWeights()
	status := st.run(sf.c, maxIters, false)
	sol := &Solution{Status: status, Iterations: st.iters, Nodes: 1}
	if status != StatusOptimal {
		return sol
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
	sol.Basis = captureBasis(p, sf, st.basis)
	return sol
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
