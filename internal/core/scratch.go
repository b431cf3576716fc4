package core

import (
	"sync"

	"mecoffload/internal/lp"
)

// slotScratch bundles the reusable buffers of one scheduling call:
// the decomposition's union-find arrays and component lists, each
// component's LP variables and solution, the merged LP view, and the
// rounding/admission work lists. ScheduleBatch and runRounding borrow one
// from slotScratchPool per call; the LP itself is built in a buildScratch
// borrowed per component solve. Together they take a long-running daemon's
// per-slot scheduling to (near) zero steady-state allocations outside the
// simplex: what a warmed slot still allocates is what each solve returns
// (Solution, Basis), a few closures per rounding pass, and one TaskStations
// list per admitted request (TestScheduleBatchSteadyAllocs).
type slotScratch struct {
	// decomposition
	parent    []int
	stUsed    []bool
	firstOf   []int
	rootComp  []int
	comps     []component
	activeAll []int

	// per-request candidate station lists recorded during the
	// splitComponents scan (flat list + offsets per active position,
	// posOf maps global request index -> active position); consumed by
	// the incremental signatures and the local-ratio certification.
	cands   []int
	candOff []int
	posOf   []int

	// incremental signatures of this slot's components (flat + offsets)
	sigs   []uint64
	sigOff []int

	// per-component solve results and warm-start seeds; results[k] owns
	// component k's vars/y storage from the build until the merge, and
	// keeps it for the next slot
	results []compSolve
	seeds   []*lp.Basis

	// merged LP view shared across rounding passes
	merged mergedModel

	// rounding/admission
	undecided []int
	inBatch   []bool
	pre       []tentative
	base      []float64
}

var slotScratchPool = sync.Pool{New: func() any { return new(slotScratch) }}

func getSlotScratch() *slotScratch   { return slotScratchPool.Get().(*slotScratch) }
func putSlotScratch(sc *slotScratch) { slotScratchPool.Put(sc) }

// growInts resizes *buf to n without clearing (callers overwrite). It
// grows geometrically: posOf is sized by the request slice, which a live
// engine extends every slot, and an exact fit would reallocate every slot.
func growInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n, 2*n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growBoolsClear resizes *buf to n and clears it.
func growBoolsClear(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	*buf = (*buf)[:n]
	b := *buf
	for i := range b {
		b[i] = false
	}
	return b
}

// growCompSolves resizes *buf to n and resets every entry (stale cached
// pointers or errors from a previous slot must not leak into this one),
// keeping each entry's vars/y storage: a component's LP variables and
// solution are built straight into it.
func growCompSolves(buf *[]compSolve, n int) []compSolve {
	if cap(*buf) < n {
		grown := make([]compSolve, n)
		copy(grown, (*buf)[:cap(*buf)])
		*buf = grown
	}
	*buf = (*buf)[:n]
	b := *buf
	for i := range b {
		b[i] = compSolve{vars: b[i].vars[:0], y: b[i].y[:0]}
	}
	return b
}

// growSeeds resizes *buf to n and clears it.
func growSeeds(buf *[]*lp.Basis, n int) []*lp.Basis {
	if cap(*buf) < n {
		*buf = make([]*lp.Basis, n)
	}
	*buf = (*buf)[:n]
	b := *buf
	for i := range b {
		b[i] = nil
	}
	return b
}

// growFloatsClear resizes *buf to n and clears it.
func growFloatsClear(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	b := *buf
	for i := range b {
		b[i] = 0
	}
	return b
}
