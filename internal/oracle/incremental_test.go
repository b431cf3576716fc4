package oracle

import (
	"errors"
	"testing"

	"mecoffload/internal/dist"
	"mecoffload/internal/graph"
	"mecoffload/internal/mec"
	"mecoffload/internal/sim"
	"mecoffload/internal/topology"
	"mecoffload/internal/workload"
)

// TestDiffIncrementalFull drives DynamicRR over the periodic island
// trace twice — full re-solve every slot vs the dirty-component cache —
// and requires bit-identical decisions, slot rewards, and totals. The
// periodicity matters: wave w's components have exactly the signature
// wave 0 cached (same station, same residual capacity, same share cap,
// same demand distribution, and position-space entries erase the new
// request ids), so every wave after the first reuses cached decisions
// deterministically — the diff fails if none is reused. Rounding
// denominator 1 keeps admission deterministic so the waves stay aligned.
func TestDiffIncrementalFull(t *testing.T) {
	net, reqs := periodicIslands(t, 6, 4)
	err := DiffIncrementalFull(net, reqs, 83, sim.Config{Horizon: 50},
		sim.DynamicRROptions{RoundingDenominator: 1})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDiffIncrementalGenericWorkload runs the incremental diff over a
// generated congested workload with the production rounding denominator.
// Decision parity must hold unconditionally; whether the trace happens to
// produce clean hits depends on the draw, so ErrNoCleanHits is tolerated
// (the periodic tests above pin guaranteed reuse).
func TestDiffIncrementalGenericWorkload(t *testing.T) {
	n := oracleNet(t, 8, 81)
	reqs := oracleWorkload(t, workload.Config{
		NumRequests:    80,
		NumStations:    8,
		ArrivalHorizon: 25,
	}, 82)
	err := DiffIncrementalFull(n, reqs, 83, sim.Config{Horizon: 60}, sim.DynamicRROptions{})
	if err != nil && !errors.Is(err, ErrNoCleanHits) {
		t.Fatal(err)
	}
}

// periodicIslands builds the trace that drives the decision cache
// deterministically: `stations` disconnected single-station islands (a
// request's access station is its only delay-feasible candidate), each
// with 3000 MHz capacity, and one single-outcome request per station with
// rate 60 MB/s. Arrivals are staggered so a departing stream frees its
// station before the next wave, and each wave repeats the previous wave's
// station/distribution pairing exactly, so wave w's component signatures
// are bit-identical to wave 0's.
func periodicIslands(t *testing.T, stations, waves int) (*mec.Network, []*mec.Request) {
	t.Helper()
	g := graph.New(stations)
	nodes := make([]topology.Node, stations)
	bs := make([]mec.BaseStation, stations)
	for i := 0; i < stations; i++ {
		nodes[i] = topology.Node{X: float64(i) * 0.1, Y: 0}
		bs[i] = mec.BaseStation{CapacityMHz: 3000, SpeedFactor: 1}
	}
	net, err := mec.NewNetwork(mec.NetworkConfig{
		Stations: bs,
		Topo:     &topology.Topology{Graph: g, Nodes: nodes},
	})
	if err != nil {
		t.Fatal(err)
	}
	var reqs []*mec.Request
	for w := 0; w < waves; w++ {
		for i := 0; i < stations; i++ {
			id := w*stations + i
			// Reward depends on the station only: wave w's request on
			// station i is distribution-identical to wave 0's, so the
			// component signature repeats across waves.
			d, err := dist.NewRateReward([]dist.Outcome{
				{Rate: 60, Prob: 1, Reward: float64(100 + 13*i%200)},
			})
			if err != nil {
				t.Fatal(err)
			}
			reqs = append(reqs, &mec.Request{
				ID:            id,
				ArrivalSlot:   w * 8,
				AccessStation: i,
				Tasks:         []mec.Task{{Name: "render", OutputKb: 100, WorkMS: 30}},
				DeadlineMS:    200,
				DurationSlots: 5,
				Dist:          d,
			})
		}
	}
	return net, reqs
}

// FuzzDirtySet fuzzes the incremental scheduler's parity contract over
// generated topologies and workloads: any (stations, requests, horizon,
// seed) draw within the envelope must produce identical decisions with
// and without the dirty-component cache. Traces that never go clean pass
// vacuously (ErrNoCleanHits is tolerated — arbitrary draws need not
// repeat a component); the curated seeds all exercise the cache.
func FuzzDirtySet(f *testing.F) {
	f.Add(int64(83), uint8(8), uint8(80), uint8(25))
	f.Add(int64(7), uint8(4), uint8(30), uint8(10))
	f.Add(int64(42), uint8(6), uint8(50), uint8(15))
	f.Add(int64(1), uint8(2), uint8(12), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, stations, requests, horizon uint8) {
		nSt := int(stations)%12 + 1
		nReq := int(requests)%100 + 1
		hor := int(horizon)%30 + 1
		n := oracleNet(t, nSt, seed)
		reqs := oracleWorkload(t, workload.Config{
			NumRequests:    nReq,
			NumStations:    nSt,
			ArrivalHorizon: hor,
		}, seed+1)
		err := DiffIncrementalFull(n, reqs, seed+2, sim.Config{Horizon: hor + 20}, sim.DynamicRROptions{})
		if err != nil && !errors.Is(err, ErrNoCleanHits) {
			t.Fatal(err)
		}
	})
}
