//go:build !race

// Allocation counts are pinned in the normal build only: under the race
// detector sync.Pool drops a random quarter of its Puts on purpose, so the
// pooled scratches are re-made whatever the code does.

package core

import (
	"math/rand"
	"testing"
)

// TestScheduleBatchSteadyAllocs pins the garbage of a warmed slot on the
// path that really builds the LP (Inc nil: every component is built and
// solved every time). What is left is a constant per rounding pass — the
// Solution and the Basis each LP solve returns, its warm-basis resolve
// tables, a few closures — times at most four passes, plus the
// TaskStations list of each admitted request. Nothing scales with
// requests x stations: the builder alone used to allocate some 2 500 times
// on the first shape, and a batch with four times as many variables fits
// the same budget.
func TestScheduleBatchSteadyAllocs(t *testing.T) {
	for _, shape := range []struct{ stations, requests int }{{20, 12}, {20, 24}, {40, 24}} {
		budget := float64(64 + shape.requests)
		net, reqs, baseUsed := churnBatch(t, shape.stations, shape.requests, 200)
		res := newBatchResult(reqs)
		active := make([]int, len(reqs))
		for j := range active {
			active[j] = j
		}
		used := make([]float64, len(baseUsed))
		rng := rand.New(rand.NewSource(3))
		warm := NewWarmCache()
		opts := BatchOptions{
			Active:      active,
			Used:        used,
			Warm:        warm,
			ShareCapMBs: func(i int) float64 { return net.Capacity(i) / float64(len(reqs)) / net.CUnit() },
		}
		var batchErr error
		slot := func() {
			copy(used, baseUsed)
			for j, r := range reqs {
				r.ResetRealization()
				res.Decisions[j] = Decision{RequestID: j, Station: -1, TaskStations: res.Decisions[j].TaskStations[:0]}
			}
			rng.Seed(3)
			admitted, err := ScheduleBatch(net, reqs, res, rng, opts)
			if err != nil {
				batchErr = err
			} else if admitted == 0 {
				batchErr = ErrLPFailed
			}
		}
		for i := 0; i < 3; i++ {
			slot() // warm the scratches, the name table and the basis cache
		}
		allocs := testing.AllocsPerRun(50, slot)
		if batchErr != nil {
			t.Fatal(batchErr)
		}
		t.Logf("%d stations x %d requests: %.0f allocs per warmed ScheduleBatch", shape.stations, shape.requests, allocs)
		if allocs > budget {
			t.Errorf("%d stations x %d requests: %.0f allocs per warmed ScheduleBatch, budget %.0f",
				shape.stations, shape.requests, allocs, budget)
		}
	}
}
