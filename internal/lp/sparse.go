package lp

// csc is a compressed-sparse-column matrix: the nonzeros of column j are
// ri[ptr[j]:ptr[j+1]] / vx[ptr[j]:ptr[j+1]]. All columns share two backing
// arrays, so column scans (the pricing loop) walk contiguous memory
// instead of chasing one slice header per column.
type csc struct {
	ptr []int
	ri  []int
	vx  []float64
}

// col returns views of column j's row indices and values.
func (a *csc) col(j int) ([]int, []float64) {
	s, e := a.ptr[j], a.ptr[j+1]
	return a.ri[s:e], a.vx[s:e]
}

// dot computes v . A_j for a dense vector v. The reslicing lets the
// compiler drop the per-element bounds checks in the full pricing loop.
func (a *csc) dot(v []float64, j int) float64 {
	s, e := a.ptr[j], a.ptr[j+1]
	ri := a.ri[s:e]
	vx := a.vx[s:e]
	vx = vx[:len(ri)]
	d := 0.0
	for k := range ri {
		d += v[ri[k]] * vx[k]
	}
	return d
}

// fromRows rebuilds a as the column-wise copy of the n-column row-wise
// matrix t, reusing a's storage: one counting pass, one scatter. Each
// column comes out in ascending row order.
func (a *csc) fromRows(t *csr, n int) {
	a.ptr = growInts(a.ptr, n+1)
	clear(a.ptr)
	for _, j := range t.ci {
		a.ptr[j+1]++
	}
	for j := 0; j < n; j++ {
		a.ptr[j+1] += a.ptr[j]
	}
	nnz := len(t.ci)
	a.ri = growInts(a.ri, nnz)
	a.vx = growFloats(a.vx, nnz)
	// Fill each column from its end backwards while the rows are walked in
	// descending order, so ptr[j] ends where it started and every column
	// comes out ascending.
	for i := len(t.ptr) - 2; i >= 0; i-- {
		for k := t.ptr[i+1] - 1; k >= t.ptr[i]; k-- {
			j := t.ci[k]
			a.ptr[j+1]--
			p := a.ptr[j+1]
			a.ri[p] = i
			a.vx[p] = t.vx[k]
		}
	}
	// Each ptr[j+1] now holds column j's start; shift back into place.
	copy(a.ptr, a.ptr[1:])
	a.ptr[n] = nnz
}

// csr is a compressed-sparse-row matrix: the nonzeros of row i are
// ci[ptr[i]:ptr[i+1]] / vx[ptr[i]:ptr[i+1]], in ascending column order. A
// Problem stores its constraints this way as they are added, and the
// simplex builds the pivot row e_r^T B^{-1} A from the standard form's
// row-wise copy by accumulating only the rows where e_r^T B^{-1} is
// nonzero.
type csr struct {
	ptr []int
	ci  []int
	vx  []float64
}
