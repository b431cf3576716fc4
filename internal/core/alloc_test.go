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
// solved every time), cold and unnamed as DynamicRR solves it. The LP
// build and solve allocate nothing (TestComponentBuildSolveAllocFree);
// what is left is a few closures per rounding pass, times at most four
// passes, plus the TaskStations list of each admitted request: 4, 19 and
// 18 on the three shapes. Nothing scales with requests x stations: the
// LP build alone used to allocate some 2 500 times on the first shape,
// and a batch with four times as many variables fits the same budget.
func TestScheduleBatchSteadyAllocs(t *testing.T) {
	for _, shape := range []struct{ stations, requests int }{{20, 12}, {20, 24}, {40, 24}} {
		budget := float64(8 + shape.requests)
		net, reqs, baseUsed := churnBatch(t, shape.stations, shape.requests, 200)
		res := newBatchResult(reqs)
		active := make([]int, len(reqs))
		for j := range active {
			active[j] = j
		}
		used := make([]float64, len(baseUsed))
		rng := rand.New(rand.NewSource(3))
		opts := BatchOptions{
			Active:      active,
			Used:        used,
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
			slot() // grow the pooled scratches to this shape
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

// TestComponentBuildSolveAllocFree pins the slot LP's own garbage at
// zero: once the scratch has seen a slot's shapes, building every
// component of the slot into the one lp.Standard and solving it, y
// written into the reused buffer, allocates nothing. So does the whole
// pass over the components (solveDecomposed, no caches), split, build,
// solve and merge. Pass 0's grid and a refined per-station grid are both
// covered, share cap on.
func TestComponentBuildSolveAllocFree(t *testing.T) {
	net, reqs, used := churnBatch(t, 20, 24, 31)
	active := make([]int, len(reqs))
	for j := range active {
		active[j] = j
	}
	sc := new(slotScratch)
	sc.reach.fill(net, reqs, active, nil, 0)
	for _, refined := range []bool{false, true} {
		opts := lpOptions{
			active:      active,
			capOf:       func(i int) float64 { return net.Capacity(i) - used[i] },
			slotMHz:     net.SlotMHz(),
			shareCapFor: func(i int) float64 { return net.Capacity(i) / float64(len(reqs)) / net.CUnit() },
			reach:       &sc.reach,
		}
		if refined {
			opts.grid = sc.fillGrid(net, used, net.SlotMHz()/2)
		}
		var buildErr error
		solved := 0
		components := func() {
			comps := splitComponents(net, reqs, opts, sc)
			copts := opts
			copts.byReq, copts.scratch, copts.cands = sc.merged.byReq, &sc.build, &sc.cands
			solved = 0
			for _, comp := range comps {
				copts.active, copts.stations, copts.vars = comp.reqs, comp.stations, sc.vars
				model, err := buildLP(net, reqs, copts)
				if err != nil {
					buildErr = err
					return
				}
				sc.vars = model.vars
				y, _, err := model.solveWarm(nil, sc.y)
				if err != nil {
					buildErr = err
					return
				}
				if y != nil {
					sc.y = y
					solved++
				}
				for _, j := range comp.reqs {
					model.byReq[j] = model.byReq[j][:0]
				}
			}
		}
		sc.merged.reset(len(reqs), active)
		components()
		if allocs := testing.AllocsPerRun(50, components); allocs != 0 || buildErr != nil || solved < 2 {
			t.Errorf("refined grid %v: %v allocations per slot's component builds and solves (%d solved, err %v), want 0 over several",
				refined, allocs, solved, buildErr)
		}
		var passErr error
		pass := func() { passErr = solveDecomposed(net, reqs, opts, solveCfg{}, sc, &sc.merged) }
		pass()
		if allocs := testing.AllocsPerRun(50, pass); allocs != 0 || passErr != nil {
			t.Errorf("refined grid %v: %v allocations per solveDecomposed pass (err %v), want 0", refined, allocs, passErr)
		}
	}
}
