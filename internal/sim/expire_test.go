package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mecoffload/internal/core"
	"mecoffload/internal/dist"
	"mecoffload/internal/mec"
	"mecoffload/internal/topology"
)

// referenceExpire is expire without the filed cuts: a pending request is
// kept when any station, scanned in index order, can still meet its
// deadline at its wait, judged on the request itself (built from its key
// where it is a key alone).
func referenceExpire(e *Engine, pending []int, t int) (keep, expired []int) {
	for _, j := range pending {
		r := e.Materialized(j)
		ok := false
		for i := 0; i < e.net.NumStations(); i++ {
			if r.DelayFeasible(e.net, i, t-r.ArrivalSlot, e.slotL) {
				ok = true
				break
			}
		}
		if ok {
			keep = append(keep, j)
		} else {
			expired = append(expired, j)
		}
	}
	return keep, expired
}

// TestExpireMatchesFullScan: over random meshes, some with a NaN-speed
// station, requests arrive over the first slots, half built and half
// filed as keys, with deadlines from below one round trip to past every
// wait, set exactly on w·L + S_i (and one ulp either side of it), or
// +Inf, and with zero-work tasks among the rest. Handovers re-point the
// pending queue at several slots and a Compact renumbers it between two.
// Stepped every slot from the first arrival until every finite cut has
// passed, expire keeps and drops exactly the requests the full scan does,
// in pending order, and only the +Inf deadlines survive.
func TestExpireMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	rate, err := dist.NewRateReward([]dist.Outcome{{Rate: 40, Prob: 1, Reward: 400}})
	if err != nil {
		t.Fatal(err)
	}
	const (
		arrivals = 8  // slots that receive requests
		horizon  = 30 // every finite deadline here is missed by then
	)
	var kept, dropped, handed, onEdge, compacted, nanNets int
	for trial := 0; trial < 60; trial++ {
		nS := 4 + rng.Intn(20)
		topo, err := topology.Waxman(topology.Config{N: nS}, rng)
		if err != nil {
			t.Fatal(err)
		}
		stations := make([]mec.BaseStation, nS)
		for i := range stations {
			stations[i] = mec.BaseStation{CapacityMHz: 3000, SpeedFactor: 0.8 + 0.4*rng.Float64()}
		}
		if trial%2 == 1 {
			stations[rng.Intn(nS)].SpeedFactor = math.NaN()
			nanNets++
		}
		net, err := mec.NewNetwork(mec.NetworkConfig{Stations: stations, Topo: topo})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewLiveEngine(net, rand.New(rand.NewSource(int64(trial))), 0)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetBuilder(func(_ int, k Key) *mec.Request {
			return &mec.Request{Tasks: k.Tasks, DeadlineMS: k.DeadlineMS, DurationSlots: 1, Dist: rate}
		})
		var handovers []Handover
		for h := 0; h < 3; h++ {
			from := rng.Intn(nS)
			handovers = append(handovers, Handover{Slot: 1 + rng.Intn(arrivals+4), From: from, To: (from + 1 + rng.Intn(nS-1)) % nS})
		}
		if err := eng.SetDrift(&Drift{Handovers: handovers}); err != nil {
			t.Fatal(err)
		}
		compactAt := 2 + rng.Intn(arrivals)
		res := &core.Result{}
		var pending []int
		for now := 0; now < horizon; now++ {
			for a := 0; now < arrivals && a < 6; a++ {
				j := len(eng.reqs)
				r := liveRequest(t, j, now, rng.Intn(nS), 1, 40)
				if rng.Intn(4) > 0 {
					r.Tasks[0].WorkMS = float64(rng.Intn(30))
				} else {
					r.Tasks[0].WorkMS = 0
				}
				switch rng.Intn(8) {
				case 0, 1:
					st := r.AccessStation // the nearest, often the fastest
					if rng.Intn(2) == 0 {
						st = rng.Intn(nS)
					}
					edge := float64(rng.Intn(6))*eng.slotL + net.ServiceDelayMS(r.AccessStation, r.Tasks, st)
					if edge == 0 { // no wait and no work: a request needs a deadline
						edge = eng.slotL
					}
					r.DeadlineMS = []float64{edge, edge, math.Nextafter(edge, math.Inf(-1)), math.Nextafter(edge, math.Inf(1))}[rng.Intn(4)]
				case 2:
					r.DeadlineMS = math.Inf(1)
				default:
					r.DeadlineMS = []float64{1, 20, 60, 120, 200, 400}[rng.Intn(6)] + rng.Float64()*40
				}
				if rng.Intn(2) == 0 {
					err = eng.Append(r)
				} else {
					err = eng.AppendKey(KeyOf(r))
				}
				if err != nil {
					t.Fatal(err)
				}
				res.Decisions = append(res.Decisions, core.Decision{RequestID: j, Station: -1})
				pending = append(pending, j)
			}
			var rep SlotReport
			eng.applyDrift(now, pending, &rep)
			handed += len(rep.HandedOver)

			wantKeep, wantExpired := referenceExpire(eng, pending, now)
			pending = eng.expire(pending, now, &rep)
			if !slices.Equal(pending, wantKeep) || !slices.Equal(rep.Expired, wantExpired) {
				t.Fatalf("trial %d slot %d: expire keeps %v and drops %v, full scan keeps %v and drops %v", trial, now, pending, rep.Expired, wantKeep, wantExpired)
			}
			kept += len(pending)
			dropped += len(rep.Expired)
			for _, j := range rep.Expired {
				// The last feasible wait was exactly the deadline.
				if k := eng.keys[j]; float64(now-1-k.ArrivalSlot)*eng.slotL+minService(net, k) == k.DeadlineMS {
					onEdge++
				}
			}
			if now == compactAt {
				keep := slices.Clone(pending)
				if pending, err = eng.Compact(keep, res, pending); err != nil {
					t.Fatal(err)
				}
				compacted++
			}
		}
		for _, j := range pending {
			if d := eng.keys[j].DeadlineMS; !math.IsInf(d, 1) {
				t.Fatalf("trial %d: request %d with a %v ms deadline still pending at slot %d", trial, j, d, horizon)
			}
		}
	}
	t.Logf("%d kept, %d expired (%d on the deadline), %d handed over, %d compactions, %d NaN-speed meshes",
		kept, dropped, onEdge, handed, compacted, nanNets)
	if kept < 10000 || dropped < 2000 || handed < 200 || onEdge < 100 || compacted < 60 || nanNets < 30 {
		t.Fatalf("coverage: %d kept, %d expired (%d on the deadline), %d handed over, %d compactions, %d NaN-speed meshes",
			kept, dropped, onEdge, handed, compacted, nanNets)
	}
}

// minService is the smallest non-NaN service delay of a request filed
// under k over every station, scanned in index order.
func minService(net *mec.Network, k Key) float64 {
	best := math.Inf(1)
	for i := 0; i < net.NumStations(); i++ {
		if s := net.ServiceDelayMS(k.AccessStation, k.Tasks, i); s < best {
			best = s
		}
	}
	return best
}

// TestExpireMatchesFullScanHugeDeadlines: on speed-1 stations a request
// whose deadline equals its work has S_min == D, so the estimate (D −
// S_min)/L is 0 while adding w·L leaves the sum at D for up to
// ulp(D)/(2L) waits: about 1.4e12 at 1e30 ms, and past maxSpan at 1e300.
// The cut must still be found in bounded time and agree with the full
// scan: feasible at its wait somewhere, at the next wait nowhere, or
// feasible at maxSpan when it never expires.
func TestExpireMatchesFullScanHugeDeadlines(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rate, err := dist.NewRateReward([]dist.Outcome{{Rate: 40, Prob: 1, Reward: 400}})
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.Waxman(topology.Config{N: 5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	stations := make([]mec.BaseStation, 5)
	for i := range stations {
		stations[i] = mec.BaseStation{CapacityMHz: 3000, SpeedFactor: 1}
	}
	net, err := mec.NewNetwork(mec.NetworkConfig{Stations: stations, Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	feasible := func(r *mec.Request, w int, slotL float64) bool {
		for i := 0; i < net.NumStations(); i++ {
			if r.DelayFeasible(net, i, w, slotL) {
				return true
			}
		}
		return false
	}
	var finite, never int
	for _, slotL := range []float64{mec.DefaultSlotLengthMS, 1, 1e-3} {
		for _, work := range []float64{1e15, 1e18, 1e30, 1e300, math.MaxFloat64} {
			for _, deadline := range []float64{work, math.Nextafter(work, math.Inf(1)), work * 1.5} {
				r := &mec.Request{ArrivalSlot: 7, AccessStation: rng.Intn(5), Tasks: []mec.Task{{WorkMS: work}}, DeadlineMS: deadline, DurationSlots: 1, Dist: rate}
				k := KeyOf(r)
				done := make(chan int, 1)
				go func() { done <- lastFeasibleSlot(net, &k, slotL) }()
				var cut int
				select {
				case cut = <-done:
				case <-time.After(10 * time.Second):
					t.Fatalf("L %v, work %v, deadline %v: no cut after 10 s", slotL, work, deadline)
				}
				if cut == neverExpires {
					never++
					if !feasible(r, maxSpan, slotL) {
						t.Fatalf("L %v, work %v, deadline %v: never expires, but the full scan finds no station at wait %d", slotL, work, deadline, maxSpan)
					}
					continue
				}
				finite++
				w := cut - r.ArrivalSlot
				if w < 0 || !feasible(r, w, slotL) || feasible(r, w+1, slotL) {
					t.Fatalf("L %v, work %v, deadline %v: cut at wait %d, but the full scan finds wait %d feasible %v and wait %d %v",
						slotL, work, deadline, w, w, w >= 0 && feasible(r, w, slotL), w+1, feasible(r, w+1, slotL))
				}
			}
		}
	}
	t.Logf("%d finite cuts, %d never expiring", finite, never)
	if finite < 5 || never < 5 {
		t.Fatalf("coverage: %d finite cuts, %d never expiring", finite, never)
	}
}
