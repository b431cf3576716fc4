package mecoffload

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"mecoffload/internal/cluster"
	"mecoffload/internal/graph"
	"mecoffload/internal/mec"
	"mecoffload/internal/serve"
	"mecoffload/internal/topology"
)

// benchIslandNetwork builds `islands` disconnected chains of `per`
// stations, the partition-aligned topology the cluster shards along:
// candidate sets stay island-confined, so every shard count from 1 to
// `islands` schedules the same requests over the same stations.
func benchIslandNetwork(b *testing.B, islands, per int) *mec.Network {
	b.Helper()
	n := islands * per
	g := graph.New(n)
	nodes := make([]topology.Node, n)
	stations := make([]mec.BaseStation, n)
	for i := 0; i < n; i++ {
		nodes[i] = topology.Node{X: float64(i%per) * 0.01, Y: float64(i/per) * 0.1}
		stations[i] = mec.BaseStation{CapacityMHz: 3200, SpeedFactor: 1}
	}
	for isl := 0; isl < islands; isl++ {
		base := isl * per
		for k := 1; k < per; k++ {
			if _, err := g.AddEdge(base+k-1, base+k, 1); err != nil {
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

// BenchmarkClusterServeSlot measures one cluster scheduling slot —
// burst-submit across every island, then a lockstep Tick — at 1, 2, 4,
// and 8 shards over the same 8-island topology. The per-slot LP work
// partitions cleanly along islands; ServeSlot throughput was measured to
// scale monotonically from 1 to 4 shards when the cluster landed. Nothing
// gates that: this is a profiling tool.
func BenchmarkClusterServeSlot(b *testing.B) {
	const islands, per = 8, 4
	for _, shards := range []int{1, 2, 4, 8} {
		// "=" not "-": a trailing -N reads as the GOMAXPROCS suffix.
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			net := benchIslandNetwork(b, islands, per)
			c, err := cluster.New(cluster.Config{
				Net:            net,
				Shards:         shards,
				SchedulerName:  "dynamicrr",
				Seed:           17,
				MigrationEvery: -1, // island candidates never span shards
			})
			if err != nil {
				b.Fatal(err)
			}
			c.Start()
			defer func() { _ = c.Stop() }()

			burst := make([]serve.RequestSpec, islands*8)
			for i := range burst {
				burst[i] = serve.RequestSpec{
					AccessStation: (i%islands)*per + (i/islands)%per,
					DurationSlots: 6,
					Outcomes: []serve.OutcomeSpec{
						{RateMBs: 40, Prob: 1, Reward: float64(300 + (i*7)%400)},
					},
				}
			}
			// Warm every shard's LP basis cache.
			if _, err := c.SubmitBatch(burst); err != nil {
				b.Fatal(err)
			}
			if err := c.Flush(); err != nil {
				b.Fatal(err)
			}
			if err := c.Tick(); err != nil {
				b.Fatal(err)
			}

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Intake happens off the clock: ServeSlot measures the
				// scheduling slot itself (LP solve, settlement, feedback
				// fan-in), the path that partitions across shards.
				b.StopTimer()
				if _, err := c.SubmitBatch(burst); err != nil {
					b.Fatal(err)
				}
				if err := c.Flush(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := c.Tick(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusterTickJitter measures slot-time JITTER, the production
// metric for a daemon that must emit a decision every slot: per-tick
// latency distribution (p50/p99/max, via ReportMetric) on a loaded
// 4-shard cluster with checkpoints firing every 16 slots — off
// (baseline), async (the extraction-only clock path), and sync (the old
// stop-the-world write). When async checkpoints landed its p99 measured
// within 2x of checkpoint=off, which sync checkpointing misses by an
// order of magnitude once fsync latency lands on the clock. The gate on
// checkpoint pauses is TestTickPauseBoundWhileCheckpointing (`make
// tick-jitter`).
func BenchmarkClusterTickJitter(b *testing.B) {
	const islands, per, shards = 8, 4, 4
	modes := []struct {
		name    string
		enabled bool
		async   bool
	}{
		{"checkpoint=off", false, false},
		{"checkpoint=async", true, true},
		{"checkpoint=sync", true, false},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			net := benchIslandNetwork(b, islands, per)
			cfg := cluster.Config{
				Net:            net,
				Shards:         shards,
				SchedulerName:  "dynamicrr",
				Seed:           17,
				MigrationEvery: -1,
			}
			if m.enabled {
				cfg.CheckpointPath = filepath.Join(b.TempDir(), "cluster.json")
				cfg.CheckpointEvery = 16
				cfg.AsyncCheckpoint = m.async
			}
			c, err := cluster.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			c.Start()
			defer func() { _ = c.Stop() }()

			burst := make([]serve.RequestSpec, islands*8)
			for i := range burst {
				burst[i] = serve.RequestSpec{
					AccessStation: (i%islands)*per + (i/islands)%per,
					DurationSlots: 6,
					Outcomes: []serve.OutcomeSpec{
						{RateMBs: 40, Prob: 1, Reward: float64(300 + (i*7)%400)},
					},
				}
			}
			if _, err := c.SubmitBatch(burst); err != nil {
				b.Fatal(err)
			}
			if err := c.Flush(); err != nil {
				b.Fatal(err)
			}
			if err := c.Tick(); err != nil {
				b.Fatal(err)
			}

			lat := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if _, err := c.SubmitBatch(burst); err != nil {
					b.Fatal(err)
				}
				if err := c.Flush(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				start := time.Now()
				if err := c.Tick(); err != nil {
					b.Fatal(err)
				}
				lat = append(lat, time.Since(start))
			}
			b.StopTimer()
			slices.Sort(lat)
			pct := func(p int) float64 {
				idx := (len(lat) - 1) * p / 100
				return float64(lat[idx])
			}
			b.ReportMetric(pct(50), "p50-ns")
			b.ReportMetric(pct(99), "p99-ns")
			b.ReportMetric(float64(lat[len(lat)-1]), "max-ns")
		})
	}
}

// BenchmarkClusterSweepBacklog measures what routing HISTORY costs the
// cluster clock: the tick time of migration-sweep slots and of (async)
// checkpoint slots on a 2-shard cluster whose every request spans both
// shards, after 1k, 10k and 100k such requests have been routed and
// settled. The sweep walks the router's worklist of possibly-pending
// requests and the manifest id table is built from the shard snapshots'
// live requests, so both must cost the handful of live requests whatever
// the backlog: the benchmark reports the two medians per backlog size
// and fails unless each stays within 2x from 1k to 100k.
func BenchmarkClusterSweepBacklog(b *testing.B) {
	// A 12-slot cycle with the sweep every 4th slot and a checkpoint every
	// 6th has two sweep-only slots, one checkpoint-only slot and one slot
	// doing both (not sampled).
	const migrationEvery, checkpointEvery, cycle, cyclesPerOp = 4, 6, 12, 8
	backlogs := []int{1_000, 10_000, 100_000}
	sweepNS := make([]float64, len(backlogs))
	ckptNS := make([]float64, len(backlogs))
	for bi, backlog := range backlogs {
		b.Run(fmt.Sprintf("backlog=%d", backlog), func(b *testing.B) {
			// One 8-station chain: a single component cut into two chunks,
			// so candidate sets span the shards.
			net := benchIslandNetwork(b, 1, 8)
			c, err := cluster.New(cluster.Config{
				Net:             net,
				Shards:          2,
				SchedulerName:   "dynamicrr",
				Seed:            17,
				MigrationEvery:  migrationEvery,
				CheckpointPath:  filepath.Join(b.TempDir(), "cluster.json"),
				CheckpointEvery: checkpointEvery,
				AsyncCheckpoint: true,
				// Small intake bounds make the backlog cheap to build: all but
				// a few of each flood batch are shed on arrival — routed,
				// spanning, and settled without costing an LP variable.
				RingCapacity:  64,
				StageCapacity: 64,
				MaxPending:    64,
			})
			if err != nil {
				b.Fatal(err)
			}
			c.Start()
			defer func() { _ = c.Stop() }()

			spec := func(i int) serve.RequestSpec {
				return serve.RequestSpec{
					AccessStation: i % net.NumStations(),
					DurationSlots: 2,
					Outcomes:      []serve.OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: float64(300 + (i*7)%400)}},
				}
			}
			slot := func(specs []serve.RequestSpec) time.Duration {
				if _, err := c.SubmitBatch(specs); err != nil {
					b.Fatal(err)
				}
				if err := c.Flush(); err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				if err := c.Tick(); err != nil {
					b.Fatal(err)
				}
				return time.Since(start)
			}
			flood := make([]serve.RequestSpec, 1000)
			for i := range flood {
				flood[i] = spec(i)
			}
			for routed := 0; routed < backlog; routed += len(flood) {
				slot(flood)
			}
			if rs := c.RouterStats(); rs.Spanning < uint64(backlog) {
				b.Fatalf("backlog: %d of %d routed requests span shards", rs.Spanning, rs.Routed)
			}
			burst := flood[:8]
			// Settle the flood and realign to a cycle boundary; the first
			// sweep after the flood is the one that prunes it.
			for i := 0; i < 2*cycle || c.Slot()%cycle != 0; i++ {
				slot(burst)
			}

			var sweep, ckpt []time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < cyclesPerOp*cycle; k++ {
					d := slot(burst)
					switch s := c.Slot() % cycle; {
					case s%migrationEvery == 0 && s%checkpointEvery != 0:
						sweep = append(sweep, d)
					case s%checkpointEvery == 0 && s%migrationEvery != 0:
						ckpt = append(ckpt, d)
					}
				}
			}
			b.StopTimer()
			c.WaitCheckpoints()
			slices.Sort(sweep)
			slices.Sort(ckpt)
			sweepNS[bi] = float64(sweep[len(sweep)/2])
			ckptNS[bi] = float64(ckpt[len(ckpt)/2])
			b.ReportMetric(sweepNS[bi], "sweep-tick-p50-ns")
			b.ReportMetric(ckptNS[bi], "ckpt-tick-p50-ns")
		})
	}
	last := len(backlogs) - 1
	for _, m := range []struct {
		name string
		ns   []float64
	}{{"sweep", sweepNS}, {"checkpoint", ckptNS}} {
		if m.ns[0] > 0 && m.ns[last] > 2*m.ns[0] {
			b.Fatalf("%s-slot tick grows with routing history: p50 %.0f ns after %d settled spanning requests, %.0f ns after %d",
				m.name, m.ns[0], backlogs[0], m.ns[last], backlogs[last])
		}
	}
}
