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

// numCols returns the number of columns appended so far.
func (a *csc) numCols() int { return len(a.ptr) - 1 }

// push appends one nonzero to the column currently being assembled;
// endCol seals it. Together they let a builder stream entries straight
// into the shared backing arrays without a per-column staging buffer.
func (a *csc) push(row int, val float64) {
	a.ri = append(a.ri, row)
	a.vx = append(a.vx, val)
}

// endCol seals the column assembled by preceding push calls.
func (a *csc) endCol() {
	a.ptr = append(a.ptr, len(a.ri))
}

// appendUnit adds a column with a single nonzero.
func (a *csc) appendUnit(row int, val float64) {
	a.ri = append(a.ri, row)
	a.vx = append(a.vx, val)
	a.ptr = append(a.ptr, len(a.ri))
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

// csr is the row-wise copy of a csc matrix: the nonzeros of row i are
// ci[ptr[i]:ptr[i+1]] / vx[ptr[i]:ptr[i+1]], in ascending column order.
// The simplex builds the pivot row e_r^T B^{-1} A from it by accumulating
// only the rows where e_r^T B^{-1} is nonzero.
type csr struct {
	ptr []int
	ci  []int
	vx  []float64
}

// transpose rebuilds t as the row-wise copy of the m-row matrix a, reusing
// t's storage.
func (t *csr) transpose(a *csc, m int) {
	t.ptr = growInts(t.ptr, m+1)
	clear(t.ptr)
	for _, r := range a.ri {
		t.ptr[r+1]++
	}
	for i := 0; i < m; i++ {
		t.ptr[i+1] += t.ptr[i]
	}
	nnz := len(a.ri)
	t.ci = growInts(t.ci, nnz)
	t.vx = growFloats(t.vx, nnz)
	// Fill each row from its end backwards while the columns are walked in
	// descending order, so ptr[i] ends where it started and every row comes
	// out ascending.
	for j := a.numCols() - 1; j >= 0; j-- {
		for k := a.ptr[j+1] - 1; k >= a.ptr[j]; k-- {
			r := a.ri[k]
			t.ptr[r+1]--
			p := t.ptr[r+1]
			t.ci[p] = j
			t.vx[p] = a.vx[k]
		}
	}
	// Each ptr[i+1] now holds row i's start; shift back into place.
	copy(t.ptr, t.ptr[1:])
	t.ptr[m] = nnz
}
