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
	err := DiffIncrementalFull(net, reqs, 83, 50,
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
	err := DiffIncrementalFull(n, reqs, 83, 60, sim.DynamicRROptions{})
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
// seed, waves) draw within the envelope must produce identical decisions
// with and without the dirty-component cache. Traces that never go clean
// pass vacuously (ErrNoCleanHits is tolerated — arbitrary draws need not
// repeat a component), as the first four seeds do: they are generated
// workloads, whose components never repeat. The curated wave draws
// (waveDraws) repeat every component, and TestDirtySetWaveDrawsReplay
// requires each of them to replay.
func FuzzDirtySet(f *testing.F) {
	f.Add(int64(83), uint8(8), uint8(80), uint8(25), uint8(0))
	f.Add(int64(7), uint8(4), uint8(30), uint8(10), uint8(0))
	f.Add(int64(42), uint8(6), uint8(50), uint8(15), uint8(0))
	f.Add(int64(1), uint8(2), uint8(12), uint8(4), uint8(0))
	for _, d := range waveDraws {
		f.Add(d.seed, d.stations, d.requests, d.horizon, d.waves)
	}
	f.Fuzz(func(t *testing.T, seed int64, stations, requests, horizon, waves uint8) {
		err := dirtySetDraw(t, seed, stations, requests, horizon, waves)
		if err != nil && !errors.Is(err, ErrNoCleanHits) {
			t.Fatal(err)
		}
	})
}

// dirtySetDraw runs one draw's differential. With waves%8 below 3 the
// trace is a generated workload of requests%100+1 arrivals over
// horizon%30+1 slots on stations%12+1 stations; from 3 on it is that many
// waves of periodicIslands over stations%12+1 islands, scheduled with
// rounding denominator 1 so the waves stay aligned, and requests and
// horizon go unused. A component is replayed from its third sighting, so
// three waves are the fewest that can.
func dirtySetDraw(t *testing.T, seed int64, stations, requests, horizon, waves uint8) error {
	nSt := int(stations)%12 + 1
	if nWaves := int(waves) % 8; nWaves >= 3 {
		net, reqs := periodicIslands(t, nSt, nWaves)
		return DiffIncrementalFull(net, reqs, seed, 8*nWaves+10,
			sim.DynamicRROptions{RoundingDenominator: 1})
	}
	nReq := int(requests)%100 + 1
	hor := int(horizon)%30 + 1
	n := oracleNet(t, nSt, seed)
	reqs := oracleWorkload(t, workload.Config{
		NumRequests:    nReq,
		NumStations:    nSt,
		ArrivalHorizon: hor,
	}, seed+1)
	return DiffIncrementalFull(n, reqs, seed+2, hor+20, sim.DynamicRROptions{})
}

// waveDraws are FuzzDirtySet's curated draws with a repeating wave.
var waveDraws = []struct {
	seed                               int64
	stations, requests, horizon, waves uint8
}{
	{83, 6, 0, 0, 4},
	{7, 1, 0, 0, 3},
	{42, 11, 0, 0, 7},
}

// TestDirtySetWaveDrawsReplay: every curated wave draw of FuzzDirtySet
// decides as the reference and replays at least one component, so the
// fuzz corpus checks the cache's reuse itself, not only its parity on
// traces that never go clean.
func TestDirtySetWaveDrawsReplay(t *testing.T) {
	for _, d := range waveDraws {
		if err := dirtySetDraw(t, d.seed, d.stations, d.requests, d.horizon, d.waves); err != nil {
			t.Errorf("draw %+v: %v", d, err)
		}
	}
}
