package mecoffload

import (
	"math/rand"
	"testing"

	"mecoffload/internal/core"
	"mecoffload/internal/graph"
	"mecoffload/internal/mec"
	"mecoffload/internal/oracle"
	"mecoffload/internal/serve"
	"mecoffload/internal/sim"
	"mecoffload/internal/topology"
)

// benchPeriodicSpecs builds the steady-wave arrival burst for the
// incremental benchmark: one two-outcome request per island (rates 60
// and 80 MB/s, rewards varying by island only), accessing the island's
// 3000 MHz head station. Each island is its own LP component; with a
// one-slot hold and denominator-1 rounding the trace reaches a fixed
// point where every slot re-presents bit-identical component signatures
// — the high-clean-fraction regime the dirty-component cache is built
// for.
func benchPeriodicSpecs(islands, per int) []serve.RequestSpec {
	specs := make([]serve.RequestSpec, islands)
	for i := range specs {
		specs[i] = serve.RequestSpec{
			AccessStation: i * per,
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

// BenchmarkIncrementalServeSlot measures one daemon scheduling slot on a
// high-clean-fraction periodic trace under DynamicRR as shipped
// (mode=incremental: clean components replay their cached decision)
// against the contrast the reuse path removed: mode=full steps the same
// waves through a bare sim live engine
// under oracle.ReferenceDynamicRR, which re-solves every component every
// slot. No serve.Engine can be built around the reference, so mode=full
// leaves out the engine's own per-tick work (tens of microseconds
// against the milliseconds of LP it prices) and is ungated. The trace
// repeats the same wave every slot, so from the third slot on every
// component replays; the ns/op ratio against mode=full is the speedup
// EXPERIMENTS.md reports. oracle.DiffIncrementalFull proves
// both emit identical decisions; this benchmark only prices them.
func BenchmarkIncrementalServeSlot(b *testing.B) {
	const islands = 16
	// Disconnected 4-station islands: every island is one LP component
	// with heterogeneous capacities, so the full re-solve prices a real
	// multi-station LP per component.
	specs := benchPeriodicSpecs(islands, len(benchIslandCaps))

	b.Run("mode=full", func(b *testing.B) {
		net := benchHeteroIslands(b, islands, benchIslandCaps)
		sched, err := oracle.ReferenceDynamicRR(sim.DynamicRROptions{RoundingDenominator: 1})
		if err != nil {
			b.Fatal(err)
		}
		eng, err := sim.NewLiveEngine(net, rand.New(rand.NewSource(23)), 0)
		if err != nil {
			b.Fatal(err)
		}
		res := &core.Result{Algorithm: sched.Name()}
		var pending []int
		slot := 0
		arrive := func() {
			for _, spec := range specs {
				r, err := serve.MaterializeSpec(net, spec)
				if err != nil {
					b.Fatal(err)
				}
				r.ID, r.ArrivalSlot = len(eng.Requests()), slot
				if err := eng.Append(r); err != nil {
					b.Fatal(err)
				}
				res.Decisions = append(res.Decisions, core.Decision{RequestID: r.ID, Station: -1})
				pending = append(pending, r.ID)
			}
		}
		step := func() {
			if pending, _, err = eng.Step(sched, res, slot, pending); err != nil {
				b.Fatal(err)
			}
			slot++
		}
		for w := 0; w < 4; w++ {
			arrive()
			step()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			arrive()
			b.StartTimer()
			step()
		}
	})

	b.Run("mode=incremental", func(b *testing.B) {
		eng, err := serve.New(serve.Config{
			Net:       benchHeteroIslands(b, islands, benchIslandCaps),
			Rng:       rand.New(rand.NewSource(23)),
			DynamicRR: sim.DynamicRROptions{RoundingDenominator: 1},
		})
		if err != nil {
			b.Fatal(err)
		}
		eng.Start()
		defer func() { _ = eng.Stop() }()

		// Reach the periodic fixed point before the clock starts.
		for w := 0; w < 4; w++ {
			if _, err := eng.SubmitBatch(specs); err != nil {
				b.Fatal(err)
			}
			if err := eng.Flush(); err != nil {
				b.Fatal(err)
			}
			if err := eng.Tick(); err != nil {
				b.Fatal(err)
			}
		}

		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Intake happens off the clock: the benchmark prices the
			// scheduling slot, not ingest.
			b.StopTimer()
			if _, err := eng.SubmitBatch(specs); err != nil {
				b.Fatal(err)
			}
			if err := eng.Flush(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := eng.Tick(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := eng.IncStats()
		if st.CleanHits == 0 {
			b.Fatal("no clean hits: the trace is not periodic")
		}
		if b.N > 1 {
			b.ReportMetric(float64(st.CleanHits)/float64(st.CleanHits+st.DirtySolves), "clean-frac")
		}
	})
}

// benchIslandCaps are the per-island station capacities of the
// incremental benchmark's network. The head station's spare slot-1
// capacity, (3000-1000)/20 = 100 MB/s, fits both the rate-60 and the
// rate-80 outcome; every tail station fits only rate 60, and no station
// pays anything at slot 2 ((cap-2000)/20 < 60 everywhere). The component
// LP carries all four stations' variables for the full re-solve to price.
var benchIslandCaps = []float64{3000, 2500, 2400, 2300}

// benchHeteroIslands builds `islands` disconnected chains of len(caps)
// stations each; intra-island edges have weight 1, so every island
// station is delay-feasible and the whole island is one LP component.
func benchHeteroIslands(b *testing.B, islands int, caps []float64) *mec.Network {
	b.Helper()
	per := len(caps)
	n := islands * per
	g := graph.New(n)
	nodes := make([]topology.Node, n)
	stations := make([]mec.BaseStation, n)
	for i := 0; i < n; i++ {
		nodes[i] = topology.Node{X: float64(i) * 0.1}
		stations[i] = mec.BaseStation{CapacityMHz: caps[i%per], SpeedFactor: 1}
		if i%per != 0 {
			if _, err := g.AddEdge(i-1, i, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
	net, err := mec.NewNetwork(mec.NetworkConfig{
		Stations: stations,
		Topo:     &topology.Topology{Graph: g, Nodes: nodes},
	})
	if err != nil {
		b.Fatal(err)
	}
	return net
}
