package lp

import "sync"

// The per-slot online algorithms solve thousands of structurally similar
// LPs back to back, and before recycling each solve allocated a few
// hundred kilobytes of matrix backing and state vectors that immediately
// became garbage — enough for the collector to show up next to the
// pricing loop in profiles. A solveScratch bundles every per-solve
// buffer: the standard form (matrix arena, costs, and the conversion's
// row-operator and slack-basis work lists), the simplex state vectors, and
// the factorization. solveDirect checks one out of the pool and returns it
// when the solve finishes. Nothing reachable from a Solution may alias the
// scratch (X, Dual, and Basis are freshly allocated), which is what makes
// the recycling safe. The builder side recycles separately: a Problem is
// rebuilt in place through Reset.
type solveScratch struct {
	sf  standardForm
	st  simplexState
	fac factor
}

var scratchPool = sync.Pool{New: func() any { return new(solveScratch) }}

// growFloats returns a length-n slice, reusing s's storage when it is
// large enough. Contents are unspecified; callers must overwrite.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growInts is growFloats for []int.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// growBools is growFloats for []bool.
func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}
