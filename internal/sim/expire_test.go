package sim

import (
	"math/rand"
	"slices"
	"testing"

	"mecoffload/internal/mec"
)

// referenceExpire is expire as it stood before it walked the reach of the
// access station: a pending request is kept when any station, scanned in
// index order, can still meet its deadline.
func referenceExpire(e *Engine, pending []int, t int) (keep, expired []int) {
	for _, j := range pending {
		r := e.reqs[j]
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

// TestExpireMatchesFullScan: on random pending sets over random meshes —
// arrivals spread over the slots before t, deadlines from below one round
// trip to past every wait, and a handover re-pointing some of the pending
// requests' access station at t, as Step applies it before expiry — expire
// keeps and drops exactly the requests the full scan does, in pending
// order.
func TestExpireMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const now = 5
	kept, dropped, handed := 0, 0, 0
	for trial := 0; trial < 60; trial++ {
		net, err := mec.RandomNetwork(4+rng.Intn(20), 3000, 3600, rng)
		if err != nil {
			t.Fatal(err)
		}
		nS := net.NumStations()
		eng, err := NewLiveEngine(net, rand.New(rand.NewSource(int64(trial))), 0)
		if err != nil {
			t.Fatal(err)
		}
		var pending []int
		arrival := 0
		for j := 0; j < 40; j++ {
			arrival += rng.Intn(2) * rng.Intn(2)
			r := liveRequest(t, j, min(arrival, now), rng.Intn(nS), 1, 40)
			r.DeadlineMS = []float64{1, 20, 60, 120, 200, 400}[rng.Intn(6)] + rng.Float64()*40
			r.Tasks[0].WorkMS = float64(rng.Intn(30))
			if err := eng.Append(r); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(4) > 0 {
				pending = append(pending, j)
			}
		}
		if len(pending) == 0 {
			continue
		}
		from := eng.reqs[pending[rng.Intn(len(pending))]].AccessStation
		if err := eng.SetDrift(&Drift{Handovers: []Handover{{Slot: now, From: from, To: (from + 1 + rng.Intn(nS-1)) % nS}}}); err != nil {
			t.Fatal(err)
		}
		var rep SlotReport
		eng.applyDrift(now, pending, &rep)
		if len(rep.HandedOver) == 0 {
			t.Fatalf("trial %d: the handover re-pointed no pending request", trial)
		}
		handed += len(rep.HandedOver)

		wantKeep, wantExpired := referenceExpire(eng, pending, now)
		got := eng.expire(slices.Clone(pending), now, &rep)
		if !slices.Equal(got, wantKeep) || !slices.Equal(rep.Expired, wantExpired) {
			t.Fatalf("trial %d: expire keeps %v and drops %v, full scan keeps %v and drops %v", trial, got, rep.Expired, wantKeep, wantExpired)
		}
		kept += len(got)
		dropped += len(rep.Expired)
	}
	if kept < 300 || dropped < 300 || handed < 60 {
		t.Fatalf("coverage: %d kept, %d expired, %d handed over", kept, dropped, handed)
	}
}
