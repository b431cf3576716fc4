package core

import "sync"

// slotScratch bundles the reusable buffers of one scheduling call:
// the decomposition's union-find arrays and component lists, the LP under
// construction with its variables and solution, the merged LP view, and
// the rounding/admission work lists. roundingLoop (ScheduleBatch, Appro
// and Heu) borrows one from slotScratchPool per call. It takes a long-running daemon's
// per-slot scheduling to (near) zero steady-state allocations outside the
// simplex: what a warmed slot still allocates is what each solve returns
// (Solution and its X, Dual and Basis), a few closures per rounding pass,
// and one TaskStations list per admitted request
// (TestScheduleBatchSteadyAllocs).
type slotScratch struct {
	// decomposition
	parent    []int
	stUsed    []bool
	firstOf   []int
	rootComp  []int
	comps     []component
	activeAll []int

	// the call's delay-feasible stations per request, filled once per
	// roundingLoop call
	reach reachLists

	// per-request candidate station lists recorded during the
	// splitComponents scan (flat list + offsets per active position,
	// posOf maps global request index -> active position); consumed by
	// the incremental signatures.
	cands   []int
	candOff []int
	posOf   []int

	// incremental signatures of this slot's components (flat + offsets)
	sigs   []uint64
	sigOff []int

	// the decision-cache entry the look-up pass found each clean component
	// (nil for a dirty one), then the one LP build every dirty component in
	// turn is built, solved and merged out of
	replays []*incEntry
	build   buildScratch
	vars    []slotVar
	y       []float64

	// merged LP view shared across rounding passes
	merged mergedModel

	// rounding/admission
	undecided []int
	pre       []tentative
	base      []float64
}

// slotScratchPool is a pointer so a test can swap in a pool that records
// the scratches it makes.
var slotScratchPool = &sync.Pool{New: func() any { return new(slotScratch) }}

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

// growReplays resizes *buf to n and clears it.
func growReplays(buf *[]*incEntry, n int) []*incEntry {
	if cap(*buf) < n {
		*buf = make([]*incEntry, n)
	}
	*buf = (*buf)[:n]
	clear(*buf)
	return *buf
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
