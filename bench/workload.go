package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"mecoffload/internal/graph"
	"mecoffload/internal/mec"
	"mecoffload/internal/rnd"
	"mecoffload/internal/serve"
	"mecoffload/internal/topology"
)

const (
	// warmupSlots run before timing on every workload and are charged to
	// setup_s: bandit arms, LP warm bases, HTTP keep-alive and the
	// registries reach their steady shape before the first timed slot.
	warmupSlots = 200
	// statusSample is the most ids of one batch the client polls.
	statusSample = 16
	// topologySeed is arserved's default -seed: the mesh workloads run on
	// the topology the daemon builds when given no flags. The benchmark's
	// own -seed never reaches the topology.
	topologySeed = 42
)

// workload is one fixed arrival rate in model time over one topology.
type workload struct {
	name string
	// why is the one-line reason recorded in BENCHMARK.json.
	why string
	// shards is cluster.Config.Shards.
	shards int
	// checkpoint turns on the arserved checkpoint defaults (path in the
	// run's scratch directory, every 50 slots, asynchronous).
	checkpoint bool
	// slotsPerSecond converts the contract's --seconds into a slot count
	// that is identical on every commit: timed slots = seconds x this.
	// It is this workload's measured slot-cycle rate on the 2-core
	// reference sandbox, rounded down, so a run at the recorded
	// run_seconds measures for about that long there.
	slotsPerSecond float64
	// metricsEvery puts a GET /metrics inside every n-th slot cycle
	// (0 = never inside a cycle).
	metricsEvery int
	network      func() (*mec.Network, error)
	// arrivals returns slot t's request specs; rng is the trace stream.
	arrivals func(rng *rand.Rand, net *mec.Network, t int) []serve.RequestSpec
}

// meshNetwork is arserved's default topology at the given station count.
func meshNetwork(stations int) func() (*mec.Network, error) {
	return func() (*mec.Network, error) {
		return mec.RandomNetwork(stations, 3000, 3600, rnd.New(topologySeed, "topology"))
	}
}

// islandCaps are the per-island station capacities of the steady_wave
// network (BenchmarkIncrementalServeSlot's): the head's spare slot-1
// capacity, (3000-1000)/20 = 100 MB/s, fits both outcomes of a wave
// request, every tail station fits only the 60 MB/s one, so the head is
// the strictly unique best placement while the component LP still
// carries all four stations' variables.
var islandCaps = []float64{3000, 2500, 2400, 2300}

const waveIslands = 16

// islandNetwork builds disconnected chains of len(islandCaps) stations:
// each island is one LP component.
func islandNetwork() (*mec.Network, error) {
	per := len(islandCaps)
	n := waveIslands * per
	g := graph.New(n)
	nodes := make([]topology.Node, n)
	stations := make([]mec.BaseStation, n)
	for i := 0; i < n; i++ {
		nodes[i] = topology.Node{X: float64(i) * 0.1}
		stations[i] = mec.BaseStation{CapacityMHz: islandCaps[i%per], SpeedFactor: 1}
		if i%per != 0 {
			if _, err := g.AddEdge(i-1, i, 1); err != nil {
				return nil, err
			}
		}
	}
	return mec.NewNetwork(mec.NetworkConfig{
		Stations: stations,
		Topo:     &topology.Topology{Graph: g, Nodes: nodes},
	})
}

// waveArrivals is the same 16-request wave every slot: one two-outcome
// request per island at its head station, held for one slot.
func waveArrivals(_ *rand.Rand, _ *mec.Network, _ int) []serve.RequestSpec {
	specs := make([]serve.RequestSpec, waveIslands)
	for i := range specs {
		specs[i] = serve.RequestSpec{
			AccessStation: i * len(islandCaps),
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

// poisson draws a Poisson(mean) count by Knuth's product method; the
// means used here (8, 12) keep exp(-mean) far from underflow.
func poisson(rng *rand.Rand, mean float64) int {
	limit := math.Exp(-mean)
	k, p := 0, rng.Float64()
	for p > limit {
		k++
		p *= rng.Float64()
	}
	return k
}

// paperArrivals is the paper's own regime: Poisson(mean) arrivals per
// slot at uniform access stations, every spec field left to the daemon's
// paper defaults except the hold, uniform in 2..11 slots.
func paperArrivals(mean float64) func(*rand.Rand, *mec.Network, int) []serve.RequestSpec {
	return func(rng *rand.Rand, net *mec.Network, _ int) []serve.RequestSpec {
		specs := make([]serve.RequestSpec, poisson(rng, mean))
		for i := range specs {
			specs[i] = serve.RequestSpec{
				AccessStation: rng.Intn(net.NumStations()),
				DurationSlots: 2 + rng.Intn(10),
			}
		}
		return specs
	}
}

const floodBatch = 500

// floodArrivals is one 500-line POST per slot of explicit single-outcome
// specs: many writes, few decisions.
func floodArrivals(rng *rand.Rand, net *mec.Network, _ int) []serve.RequestSpec {
	specs := make([]serve.RequestSpec, floodBatch)
	for i := range specs {
		specs[i] = serve.RequestSpec{
			AccessStation: rng.Intn(net.NumStations()),
			DurationSlots: 1 + rng.Intn(3),
			Outcomes: []serve.OutcomeSpec{{
				RateMBs: 30 + 20*rng.Float64(),
				Prob:    1,
				Reward:  300 + 400*rng.Float64(),
			}},
		}
	}
	return specs
}

// workloads is the benchmark's fixed set, in report order. Each stresses
// a different layer; README.md gives the full reasoning.
var workloads = []*workload{
	{
		name:           "steady_wave",
		why:            "16 islands, the same 16-request wave every slot: every LP component repeats bit-identically, so core/lp re-solve dominates and is pure waste; a reuse path should cut slot_ms_p50",
		shards:         1,
		slotsPerSecond: 300,
		network:        islandNetwork,
		arrivals:       waveArrivals,
	},
	{
		name:           "churn_mesh",
		why:            "arserved default 20-station mesh, Poisson(12) paper-default arrivals: one component that changes every slot, nothing reusable; LP build, warm simplex and rounding dominate; control for steady_wave",
		shards:         1,
		slotsPerSecond: 400,
		network:        meshNetwork(20),
		arrivals:       paperArrivals(12),
	},
	{
		name:           "sharded_mesh",
		why:            "the same mesh split over 2 shards with migration and async checkpoints, Poisson(8): nearly every request spans shards, so router, migration sweep, epoch barrier and checkpoint extraction dominate",
		shards:         2,
		checkpoint:     true,
		slotsPerSecond: 50,
		network:        meshNetwork(20),
		arrivals:       paperArrivals(8),
	},
	{
		name:           "ingest_flood",
		why:            "4 stations, one 500-line NDJSON POST per slot plus GET /metrics every 10th slot: decode, pricing, ring/stage transit, registry fan-out and planner compaction dominate while the LP is tiny",
		shards:         1,
		slotsPerSecond: 50,
		metricsEvery:   10,
		network:        meshNetwork(4),
		arrivals:       floodArrivals,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// timedSlots is the slot count a run at the given --seconds measures.
func (w *workload) timedSlots(seconds int) int {
	return int(float64(seconds) * w.slotsPerSecond)
}

// arrivalTrace is the whole pre-generated input of one run: slot t's
// NDJSON body is bodies[t] (nil when nothing arrives), it carries
// counts[t] lines, and sample[t] indexes the lines whose ids the client
// polls after the tick.
type arrivalTrace struct {
	bodies [][]byte
	counts []int
	sample [][]int
	total  int
}

// generateTrace draws `slots` slots of arrivals and pre-encodes each
// slot's body, so the program under test receives only bytes.
func generateTrace(w *workload, net *mec.Network, seed int64, slots int) (*arrivalTrace, error) {
	arrive := rnd.New(seed, "bench-arrivals")
	pick := rnd.New(seed, "bench-status-sample")
	tr := &arrivalTrace{
		bodies: make([][]byte, slots),
		counts: make([]int, slots),
		sample: make([][]int, slots),
	}
	var buf bytes.Buffer
	for t := 0; t < slots; t++ {
		specs := w.arrivals(arrive, net, t)
		n := len(specs)
		tr.counts[t] = n
		tr.total += n
		if n == 0 {
			continue
		}
		buf.Reset()
		for i := range specs {
			line, err := json.Marshal(&specs[i])
			if err != nil {
				return nil, err
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
		tr.bodies[t] = append([]byte(nil), buf.Bytes()...)
		k := statusSample
		if n < k {
			k = n
		}
		tr.sample[t] = pick.Perm(n)[:k]
	}
	return tr, nil
}
