package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"mecoffload/internal/dist"
	"mecoffload/internal/mec"
	"mecoffload/internal/workload"
)

func newBatchResult(reqs []*mec.Request) *Result {
	res := &Result{Algorithm: "batch", Decisions: make([]Decision, len(reqs))}
	for j := range res.Decisions {
		res.Decisions[j] = Decision{RequestID: j, Station: -1}
	}
	return res
}

func TestScheduleBatchBasic(t *testing.T) {
	net := testNetwork(t, 6, 61)
	reqs := testWorkload(t, 30, 6, 62)
	res := newBatchResult(reqs)
	used := make([]float64, net.NumStations())
	admitted, err := ScheduleBatch(net, reqs, res, rand.New(rand.NewSource(63)), BatchOptions{
		Active:     []int{0, 1, 2, 3, 4, 5, 6, 7},
		Used:       used,
		Distribute: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if admitted == 0 {
		t.Fatal("batch admitted nothing on an empty network")
	}
	// Requests outside Active must stay untouched.
	for j := 8; j < len(reqs); j++ {
		if res.Decisions[j].Admitted {
			t.Fatalf("request %d outside the batch was admitted", j)
		}
	}
	// The ledger must equal the realized shares of admitted, non-evicted
	// requests, bit for bit.
	want := make([]float64, net.NumStations())
	for j := 0; j < 8; j++ {
		d := res.Decisions[j]
		if !d.Admitted || d.Evicted {
			continue
		}
		out, ok := reqs[j].Realized()
		if !ok {
			t.Fatalf("admitted request %d not realized", j)
		}
		for k, st := range d.TaskStations {
			want[st] += net.TaskMHz(reqs[j], k, out.Rate)
		}
	}
	for i := range want {
		if used[i] != want[i] {
			t.Fatalf("station %d ledger %v, want %v", i, used[i], want[i])
		}
	}
	for i, u := range used {
		if u > net.Capacity(i) {
			t.Fatalf("station %d over capacity: %v", i, u)
		}
	}
}

func TestScheduleBatchRespectsWaits(t *testing.T) {
	net := testNetwork(t, 5, 64)
	reqs := testWorkload(t, 10, 5, 65)
	res := newBatchResult(reqs)
	used := make([]float64, net.NumStations())
	// An enormous wait makes every placement deadline-infeasible.
	_, err := ScheduleBatch(net, reqs, res, rand.New(rand.NewSource(66)), BatchOptions{
		Active:    []int{0, 1, 2},
		Used:      used,
		WaitSlots: func(int) int { return 1000 },
	})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		if res.Decisions[j].Admitted {
			t.Fatalf("request %d admitted despite impossible wait", j)
		}
	}
	// A realistic wait is reflected in the recorded decision.
	_, err = ScheduleBatch(net, reqs, res, rand.New(rand.NewSource(67)), BatchOptions{
		Active:    []int{3, 4, 5, 6},
		Used:      used,
		WaitSlots: func(int) int { return 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	for j := 3; j < 7; j++ {
		d := res.Decisions[j]
		if !d.Admitted {
			continue
		}
		if d.WaitSlots != 1 {
			t.Fatalf("request %d wait %d, want 1", j, d.WaitSlots)
		}
		if d.LatencyMS <= mec.DefaultSlotLengthMS {
			t.Fatalf("request %d latency %v must include the waiting slot", j, d.LatencyMS)
		}
	}
}

func TestScheduleBatchShareCapLimitsPerStationMass(t *testing.T) {
	net := testNetwork(t, 4, 68)
	reqs := testWorkload(t, 40, 4, 69)
	res := newBatchResult(reqs)
	used := make([]float64, net.NumStations())
	active := make([]int, 20)
	for i := range active {
		active[i] = i
	}
	// LP-PT share truncation: with |R_t| = 20 the per-station share is
	// C_i/20 (~170 MHz ~ 8.5 MB/s), well below every request's demand, so
	// constraint (23) throttles how much expected mass the LP packs.
	rt := float64(len(active))
	_, err := ScheduleBatch(net, reqs, res, rand.New(rand.NewSource(70)), BatchOptions{
		Active:      active,
		Used:        used,
		ShareCapMBs: func(i int) float64 { return net.Capacity(i) / rt / net.CUnit() },
		Passes:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range used {
		if u > net.Capacity(i)+1e-6 {
			t.Fatalf("station %d over capacity %v", i, u)
		}
	}
}

func TestScheduleBatchEmptyActive(t *testing.T) {
	net := testNetwork(t, 3, 71)
	reqs := testWorkload(t, 5, 3, 72)
	res := newBatchResult(reqs)
	admitted, err := ScheduleBatch(net, reqs, res, rand.New(rand.NewSource(73)), BatchOptions{
		Used: make([]float64, net.NumStations()),
	})
	if err != nil || admitted != 0 {
		t.Fatalf("empty batch: admitted=%d err=%v", admitted, err)
	}
	if _, err := ScheduleBatch(nil, reqs, res, rand.New(rand.NewSource(74)), BatchOptions{}); err == nil {
		t.Fatal("want error for nil network")
	}
}

// TestScheduleBatchSequentialFillsToCapacity: repeated batches against the
// same ledger (the per-slot pattern of DynamicRR) must keep honoring the
// shared capacity.
func TestScheduleBatchSequentialFillsToCapacity(t *testing.T) {
	net := testNetwork(t, 4, 75)
	reqs := testWorkload(t, 60, 4, 76)
	res := newBatchResult(reqs)
	used := make([]float64, net.NumStations())
	rng := rand.New(rand.NewSource(77))
	for start := 0; start < 60; start += 15 {
		active := make([]int, 15)
		for i := range active {
			active[i] = start + i
		}
		if _, err := ScheduleBatch(net, reqs, res, rng, BatchOptions{
			Active:     active,
			Used:       used,
			Distribute: true,
		}); err != nil {
			t.Fatal(err)
		}
		for i, u := range used {
			if u > net.Capacity(i)+1e-6 {
				t.Fatalf("after batch at %d: station %d over capacity (%v)", start, i, u)
			}
		}
	}
	workload.Reset(nil) // no-op guard: Reset must tolerate nil
}

// TestRefinedPassColumnsCapped: a per-slot batch's refined pass k >= 1
// solves on the per-station grid g_i = max(C_l/2^k, floored at C_l/8,
// R_i/⌈C(bs_i)/C_l⌉) <= C_l, so no pass builds more than ⌈C(bs_i)/C_l⌉
// columns for a (request, station) pair, and a request's candidate
// stations (positive er1, on the same grid) are exactly the stations it
// has columns on. The decision cache is offered every component solve of
// every pass with its signature, which names each station's g_i and
// residual and each request's candidates, beside the columns the solve
// built; the test keeps the last solve offered under each key, whatever
// the cache files, and reads both from there, over slots whose random
// ledgers leave stations with whole slots free (the cap sets g_i) and
// with leftovers below one paper slot (the fine grid does).
func TestRefinedPassColumnsCapped(t *testing.T) {
	net, reqs, _ := churnBatch(t, 20, 40, 200)
	rng := rand.New(rand.NewSource(5))
	inc := NewIncCache()
	type solve struct {
		sig  []uint64
		vars []slotVar // req is the position within the component
	}
	last := map[warmKey]solve{}
	inc.solved = func(pass, shard int, sig []uint64, vars []slotVar, compReqs []int) {
		s := solve{sig: slices.Clone(sig)}
		for _, sv := range vars {
			sv.req = slices.Index(compReqs, sv.req)
			s.vars = append(s.vars, sv)
		}
		last[warmKey{pass: pass, shard: shard}] = s
	}
	cl := net.SlotMHz()
	cover := func(i int) int { return int(math.Ceil(net.Capacity(i) / cl)) }
	capped, fine := 0, 0
	for slot := 0; slot < 40; slot++ {
		var active []int
		for j := range reqs {
			if rng.Intn(3) == 0 {
				active = append(active, j)
			}
		}
		used := make([]float64, net.NumStations())
		for i := range used {
			used[i] = 0.95 * rng.Float64() * net.Capacity(i)
		}
		workload.Reset(reqs)
		rt := float64(max(1, len(active)))
		if _, err := ScheduleBatch(net, reqs, newBatchResult(reqs), rng, BatchOptions{
			Active:      active,
			Used:        used,
			ShareCapMBs: func(i int) float64 { return net.Capacity(i) / rt / net.CUnit() },
			Distribute:  true,
			Inc:         inc,
		}); err != nil {
			t.Fatal(err)
		}
		for key, e := range last {
			// slot length, station count, then per station its index,
			// g_i, residual and share cap
			nS := int(e.sig[1])
			for s := 0; s < nS; s++ {
				w := e.sig[2+4*s:]
				i, g, residual := int(w[0]), math.Float64frombits(w[1]), math.Float64frombits(w[2])
				want := cl
				if key.pass > 0 {
					floor := cl / float64(int(1)<<min(key.pass, 3))
					want = max(floor, residual/float64(cover(i)))
					if want > floor {
						capped++
					} else {
						fine++
					}
				}
				if g != want || g > cl {
					t.Fatalf("slot %d pass %d station %d: grid %v MHz, want %v (residual %v)", slot, key.pass, i, g, want, residual)
				}
			}
			cols := map[[2]int]int{}
			for _, sv := range e.vars {
				cols[[2]int{sv.req, sv.station}]++
			}
			for pair, c := range cols {
				if c > cover(pair[1]) {
					t.Fatalf("slot %d pass %d: request %d has %d columns on station %d, want at most %d",
						slot, key.pass, pair[0], c, pair[1], cover(pair[1]))
				}
			}
			// then the request count, and per request its candidates and
			// its outcomes (three words each)
			at := 2 + 4*nS
			nReq := int(e.sig[at])
			at++
			for k := 0; k < nReq; k++ {
				cands := e.sig[at+1 : at+1+int(e.sig[at])]
				at += 1 + len(cands)
				at += 1 + 3*int(e.sig[at])
				for _, i := range cands {
					if cols[[2]int{k, int(i)}] == 0 {
						t.Fatalf("slot %d pass %d: request %d has station %d as a candidate and no column there", slot, key.pass, k, i)
					}
				}
				n := 0
				for pair := range cols {
					if pair[0] == k {
						n++
					}
				}
				if n != len(cands) {
					t.Fatalf("slot %d pass %d: request %d has columns on %d stations, %d candidates", slot, key.pass, k, n, len(cands))
				}
			}
			if at != len(e.sig) {
				t.Fatalf("slot %d pass %d: signature of %d words, read %d", slot, key.pass, len(e.sig), at)
			}
		}
	}
	t.Logf("refined stations: %d on the capped grid, %d on the fine one", capped, fine)
	if capped < 100 || fine < 100 {
		t.Fatalf("refined stations: %d on the capped grid, %d on the fine one; the ledgers lost their coverage", capped, fine)
	}
}

// TestAdmissionUsesStationGrid: the admission sweep tests a tentative at
// slot l of station i against l slots of the pass's grid on i, the grid
// its LP was built on. Three 600 MHz requests pre-assigned to slot 1 of a
// 3000 MHz station: on a refined pass's 500 MHz grid only the first passes
// the occupancy test, and on the station's capped 1000 MHz grid the second
// does too.
func TestAdmissionUsesStationGrid(t *testing.T) {
	net := buildTestNetwork(t, []float64{3000})
	d, err := dist.NewRateReward([]dist.Outcome{{Rate: 30, Prob: 1, Reward: 400}})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]*mec.Request, 3)
	for j := range reqs {
		reqs[j] = &mec.Request{ID: j, Tasks: []mec.Task{{Name: "render", OutputKb: 100, WorkMS: 30}}, DeadlineMS: 200, Dist: d}
	}
	for _, tc := range []struct {
		grid []float64
		want int
	}{{nil, 1}, {[]float64{1000}, 2}} {
		workload.Reset(reqs)
		var pre []tentative
		for j := range reqs {
			pre = append(pre, tentative{req: j, station: 0, slot: 1, rate: 30})
		}
		got := admitSlotBySlot(net, reqs, pre, rand.New(rand.NewSource(1)), mec.DefaultSlotLengthMS, 500, tc.grid,
			newBatchResult(reqs), admissionHooks{}, make([]float64, 1), nil, new(slotScratch))
		if got != tc.want {
			t.Fatalf("grid %v: admitted %d, want %d", tc.grid, got, tc.want)
		}
	}
}
