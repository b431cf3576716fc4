package cluster

import (
	"reflect"
	"slices"
	"testing"

	"mecoffload/internal/core"
	"mecoffload/internal/graph"
	"mecoffload/internal/mec"
	"mecoffload/internal/oracle"
	"mecoffload/internal/rnd"
	"mecoffload/internal/serve"
	"mecoffload/internal/sim"
	"mecoffload/internal/topology"
)

// waveIslandCaps are BenchmarkIncrementalServeSlot's island capacities:
// the head station is the strictly best placement of a wave request while
// the component LP still carries all four stations' variables.
var waveIslandCaps = []float64{3000, 2500, 2400, 2300}

// waveNetwork builds `islands` disconnected chains of len(waveIslandCaps)
// stations: each island is one LP component.
func waveNetwork(t testing.TB, islands int) *mec.Network {
	t.Helper()
	per := len(waveIslandCaps)
	n := islands * per
	g := graph.New(n)
	nodes := make([]topology.Node, n)
	stations := make([]mec.BaseStation, n)
	for i := 0; i < n; i++ {
		nodes[i] = topology.Node{X: float64(i) * 0.1}
		stations[i] = mec.BaseStation{CapacityMHz: waveIslandCaps[i%per], SpeedFactor: 1}
		if i%per != 0 {
			if _, err := g.AddEdge(i-1, i, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	net, err := mec.NewNetwork(mec.NetworkConfig{
		Stations: stations,
		Topo:     &topology.Topology{Graph: g, Nodes: nodes},
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// waveSpecs is the steady wave: one two-outcome request per island at its
// head station, held for one slot, the same every slot.
func waveSpecs(islands int) []serve.RequestSpec {
	specs := make([]serve.RequestSpec, islands)
	for i := range specs {
		specs[i] = serve.RequestSpec{
			AccessStation: i * len(waveIslandCaps),
			DeadlineMS:    200,
			DurationSlots: 1,
			Outcomes: []serve.OutcomeSpec{
				{RateMBs: 60, Prob: 0.5, Reward: float64(100 + 13*i)},
				{RateMBs: 80, Prob: 0.5, Reward: float64(150 + 13*i)},
			},
		}
	}
	return specs
}

type slotDecision struct {
	Slot     int
	Admitted []uint64
	Reward   float64
}

// TestDefaultClusterReusesDecisions pins the default end to end: a
// cluster built from nothing but {Net, Shards: 1, Seed} replays clean
// components — on the 16-island steady wave at least 99 of 100 component
// solves after warm-up are replays — and its decision stream equals, slot
// for slot, that of the oracle's reference scheduler (no decision cache:
// every component re-solved every slot) stepping a bare planner through
// the same arrivals on the shard's own random stream.
func TestDefaultClusterReusesDecisions(t *testing.T) {
	const islands, warmup, slots, seed = 16, 20, 220, 5
	net := waveNetwork(t, islands)
	specs := waveSpecs(islands)

	var got []slotDecision
	// Nothing that reaches the scheduler is set: the observer only reads.
	c, err := New(Config{Net: net, Shards: 1, Seed: seed,
		SlotObserver: func(slot int, admitted []uint64, reward float64) {
			got = append(got, slotDecision{slot, slices.Clone(admitted), reward})
		}})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer func() { _ = c.Stop() }()
	var after core.IncStats
	for slot := 0; slot < slots; slot++ {
		if slot == warmup {
			after = c.nodes[0].eng.IncStats()
		}
		if _, err := c.SubmitBatch(specs); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	st := c.nodes[0].eng.IncStats()
	clean, dirty := st.CleanHits-after.CleanHits, st.DirtySolves-after.DirtySolves
	if total := clean + dirty; total == 0 || float64(clean) < 0.99*float64(total) {
		t.Fatalf("after warm-up %d of %d component solves were replays, want at least 99%%", clean, clean+dirty)
	}

	sched, err := oracle.ReferenceDynamicRR(sim.DynamicRROptions{})
	if err != nil {
		t.Fatal(err)
	}
	planner, err := sim.NewLiveEngine(net, rnd.New(seed, "cluster-shard-0"), 0)
	if err != nil {
		t.Fatal(err)
	}
	planner.SetStepChecker(oracle.EngineChecker())
	res := &core.Result{Algorithm: sched.Name()}
	var pending []int
	var want []slotDecision
	for slot := 0; slot < slots; slot++ {
		for _, spec := range specs {
			r, err := serve.MaterializeSpec(net, spec)
			if err != nil {
				t.Fatal(err)
			}
			// Planner ids are submission ordinals, and so are the global
			// ids a fresh cluster hands out.
			r.ID, r.ArrivalSlot = len(planner.Requests()), slot
			if err := planner.Append(r); err != nil {
				t.Fatal(err)
			}
			res.Decisions = append(res.Decisions, core.Decision{RequestID: r.ID, Station: -1})
			pending = append(pending, r.ID)
		}
		var rep sim.SlotReport
		if pending, rep, err = planner.Step(sched, res, slot, pending); err != nil {
			t.Fatal(err)
		}
		d := slotDecision{Slot: slot, Reward: rep.Reward}
		for _, j := range rep.Admitted {
			d.Admitted = append(d.Admitted, uint64(j))
		}
		slices.Sort(d.Admitted)
		want = append(want, d)
	}
	if st := sched.IncStats(); st != (core.IncStats{}) {
		t.Fatalf("the reference counted cache traffic: %+v", st)
	}

	if len(got) != len(want) {
		t.Fatalf("cluster reported %d slots, reference %d", len(got), len(want))
	}
	admitted := 0
	for i := range want {
		slices.Sort(got[i].Admitted)
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("slot %d diverges:\n  cluster: %+v\nreference: %+v", i, got[i], want[i])
		}
		admitted += len(want[i].Admitted)
	}
	if admitted < slots*islands/2 {
		t.Fatalf("only %d admissions over %d slots: the wave is not being served", admitted, slots)
	}
}
