package cluster

import (
	"maps"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"mecoffload/internal/graph"
	"mecoffload/internal/mec"
	"mecoffload/internal/serve"
	"mecoffload/internal/topology"
)

// allocTestNetwork builds two disconnected 2-station islands — a
// partition-aligned topology whose candidate sets never span shards, so
// routing always takes the fast path.
func allocTestNetwork(t *testing.T) *mec.Network {
	t.Helper()
	g := graph.New(4)
	for _, e := range [][2]int{{0, 1}, {2, 3}} {
		if _, err := g.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	nodes := make([]topology.Node, 4)
	for i := range nodes {
		nodes[i] = topology.Node{X: float64(i%2) * 0.01, Y: float64(i/2) * 0.1}
	}
	net, err := mec.NewNetwork(mec.NetworkConfig{
		Stations: []mec.BaseStation{
			{CapacityMHz: 3200, SpeedFactor: 1},
			{CapacityMHz: 3200, SpeedFactor: 1},
			{CapacityMHz: 3200, SpeedFactor: 1},
			{CapacityMHz: 3200, SpeedFactor: 1},
		},
		Topo: &topology.Topology{Graph: g, Nodes: nodes},
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestRouteFastPathAllocFree pins the router's ingest floor: routing a
// spec whose candidates stay island-confined — the overwhelmingly common
// case — performs zero allocations once the recycled candidate buffer has
// grown.
func TestRouteFastPathAllocFree(t *testing.T) {
	net := allocTestNetwork(t)
	rt := newRouter(net, []int{0, 0, 1, 1})
	spec := serve.RequestSpec{
		AccessStation: 2,
		DurationSlots: 6,
		Outcomes:      []serve.OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: 300}},
	}
	var buf []int
	allocs := testing.AllocsPerRun(500, func() {
		shard, cands, spanning, err := rt.route(spec, buf[:0])
		if err != nil || shard != 1 || spanning {
			t.Fatalf("route = (%d, %v, %v, %v), want shard 1, not spanning", shard, cands, spanning, err)
		}
		buf = cands
	})
	if allocs != 0 {
		t.Fatalf("route fast path allocates %v per run, want 0", allocs)
	}
}

// TestIdleTickEpochAllocFree pins the cluster clock's floor: one cluster
// tick — both engines' slots, their decision reports, the feedback
// delivery, and the SlotObserver callback — allocates NOTHING on an idle
// slot. A regression here means something put per-slot garbage back on
// the clock path. The pin is for the cluster as shipped: MEC_ORACLE=1
// would install the allocating invariant checker on every shard, so the
// test clears it.
func TestIdleTickEpochAllocFree(t *testing.T) {
	t.Setenv("MEC_ORACLE", "0")
	net := allocTestNetwork(t)
	c, err := New(Config{
		Net:    net,
		Shards: 2,
		Seed:   5,
		SlotObserver: func(slot int, admitted []uint64, reward float64) {
			if len(admitted) != 0 || reward != 0 {
				t.Errorf("idle slot %d reported admitted=%v reward=%v", slot, admitted, reward)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer func() { _ = c.Stop() }()
	// Warm every reusable buffer: the engines' and the clock's admitted
	// scratch.
	for i := 0; i < 8; i++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("idle cluster tick allocates %v per run, want 0", allocs)
	}
}

// TestSubmitBatchScratchReuse pins the batched-ingest floor indirectly:
// the pooled batchScratch must produce identical results across reuse,
// including shards skipped on the second batch (stale results must not
// leak into the Shed aggregate).
func TestSubmitBatchScratchReuse(t *testing.T) {
	net := allocTestNetwork(t)
	c, err := New(Config{Net: net, Shards: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer func() { _ = c.Stop() }()

	mk := func(station int) serve.RequestSpec {
		return serve.RequestSpec{
			AccessStation: station,
			DurationSlots: 2,
			Outcomes:      []serve.OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: 100}},
		}
	}
	// First batch touches both shards and sizes the scratch.
	res, err := c.SubmitBatch([]serve.RequestSpec{mk(0), mk(2), mk(1), mk(3)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 4 || res.Shed != 0 {
		t.Fatalf("batch 1: %+v", res)
	}
	// Second batch touches only shard 0: shard 1's stale scratch entries
	// must not contribute ids or sheds.
	res, err = c.SubmitBatch([]serve.RequestSpec{mk(0), mk(1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 2 || res.Shed != 0 {
		t.Fatalf("batch 2: %+v", res)
	}
	// Global ids stay dense submission ordinals across scratch reuse.
	for i, id := range res.IDs {
		if id != uint64(4+i) {
			t.Fatalf("batch 2 ids = %v, want [4 5]", res.IDs)
		}
	}
}

// TestSpanningBatchCopiesNoCandidates pins the spanning half of the
// ingest floor: on a 4-station chain cut into two shards every candidate
// set spans both, and a SubmitBatch of 64 such requests reads each one's
// candidate list where routing built it, in the pooled scratch, instead of
// copying it per request.
func TestSpanningBatchCopiesNoCandidates(t *testing.T) {
	c, err := New(Config{Net: chainTestNetwork(t, 4), Shards: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer func() { _ = c.Stop() }()
	batch := make([]serve.RequestSpec, 64)
	for i := range batch {
		batch[i] = serve.RequestSpec{AccessStation: i % 4, DurationSlots: 2, Outcomes: []serve.OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: 100}}}
	}
	submit := func() {
		if _, err := c.SubmitBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	submit() // grows the scratch
	allocs := testing.AllocsPerRun(50, submit)
	if rs := c.RouterStats(); rs.Spanning != rs.Routed {
		t.Fatalf("%d of %d routed requests span the shards, want all", rs.Spanning, rs.Routed)
	}
	if perReq := allocs / float64(len(batch)); perReq >= 0.5 {
		t.Fatalf("a SubmitBatch of %d spanning requests allocates %v times (%.2f per request), want well under one per request",
			len(batch), allocs, perReq)
	}
}

// TestRefusedShardLeavesHoles: ids are reserved for the whole batch before
// the shards see it, so a shard that refuses its share (here: it is
// draining) fails its own lines and nobody else's — the accepted lines keep
// the ids their positions in the batch gave them, the refused ids are never
// used again and answer as unknown.
func TestRefusedShardLeavesHoles(t *testing.T) {
	net := allocTestNetwork(t)
	c, err := New(Config{Net: net, Shards: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer func() { _ = c.Stop() }()
	mk := func(station int) serve.RequestSpec {
		return serve.RequestSpec{AccessStation: station, DurationSlots: 2, Outcomes: []serve.OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: 100}}}
	}
	if err := c.engines[1].Drain(); err != nil {
		t.Fatal(err)
	}
	// Stations 0,1 are shard 0's; 2,3 the draining shard 1's.
	res, err := c.SubmitBatch([]serve.RequestSpec{mk(0), mk(2), mk(1), mk(3), mk(0)})
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint64{0, 2, 4}; !slices.Equal(res.IDs, want) {
		t.Fatalf("accepted ids %v, want %v", res.IDs, want)
	}
	if _, _, err := c.Submit(mk(2)); err == nil {
		t.Fatal("a draining shard accepted a request")
	}
	id, _, err := c.Submit(mk(1))
	if err != nil || id != 6 {
		t.Fatalf("next id %d (err %v), want 6: ids 1, 3 and 5 stay holes", id, err)
	}
	for g := uint64(0); g <= 6; g++ {
		rec, ok, err := c.Status(g)
		if accepted := g%2 == 0; err != nil || ok != accepted || (ok && rec.ID != g) {
			t.Fatalf("status(%d) = %+v known=%v err=%v, want known=%v", g, rec, ok, err, accepted)
		}
	}
}

// TestClusterGoroutines: a shard costs no goroutine — the clock runs every
// shard's slot itself. New plus Start on the manual clock without a
// checkpoint path adds no goroutine at any shard count, and Stop leaves
// none.
func TestClusterGoroutines(t *testing.T) {
	net := allocTestNetwork(t)
	for _, shards := range []int{1, 2, 4} {
		base := settledGoroutines(t)
		c, err := New(Config{Net: net, Shards: shards, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		if got := runtime.NumGoroutine() - base; got != 0 {
			t.Fatalf("%d shards: New + Start added %d goroutines, want 0", shards, got)
		}
		if err := c.Stop(); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, base)
	}
}

// TestStopLeavesNoGoroutines: a started 2-shard cluster with a checkpoint
// path runs one goroutine, the checkpoint writer; after a Stop that
// follows batches, slots, checkpoints and a drain, it is gone. The census counts goroutines by the function they run, so another
// test's goroutine that comes or goes meanwhile does not enter it.
func TestStopLeavesNoGoroutines(t *testing.T) {
	net := allocTestNetwork(t)
	none := map[string]int{}
	waitClusterGoroutines(t, none, "before New (an earlier cluster's)")
	c, err := New(Config{
		Net: net, Shards: 2, Seed: 5,
		CheckpointPath: filepath.Join(t.TempDir(), "cluster.json"), CheckpointEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	waitClusterGoroutines(t, map[string]int{writerLoop: 1}, "a started 2-shard cluster (the checkpoint writer)")
	for slot := 0; slot < 6; slot++ {
		if _, err := c.SubmitBatch([]serve.RequestSpec{{AccessStation: slot % 4, DurationSlots: 2}}); err != nil {
			t.Fatal(err)
		}
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("Stop returned with Done still open")
	}
	waitClusterGoroutines(t, none, "after Stop")
}

// The functions a cluster's goroutines run: the checkpoint writer's loop
// with a checkpoint path, and the wall clock with a tick interval.
const (
	writerLoop = "ckpt.(*Writer).loop"
	ticker     = "cluster.(*Cluster).runTicker"
)

// clusterGoroutines counts the live goroutines running each cluster
// function, leaving out the functions none runs.
func clusterGoroutines() map[string]int {
	n := map[string]int{}
	buf := make([]byte, 1<<20)
	for runtime.Stack(buf, true) == len(buf) {
		buf = make([]byte, 2*len(buf)) // the dump was cut short
	}
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		for _, fn := range []string{writerLoop, ticker} {
			if strings.Contains(g, fn+"(") {
				n[fn]++
			}
		}
	}
	return n
}

// waitClusterGoroutines waits until clusterGoroutines reports want: a
// goroutine shows its function only once it first runs, and leaves only
// after the close that retires it returns.
func waitClusterGoroutines(t *testing.T, want map[string]int, when string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !maps.Equal(clusterGoroutines(), want); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: cluster goroutines %v, want %v", when, clusterGoroutines(), want)
		}
	}
}

// settledGoroutines waits until no goroutine of an earlier cluster is left
// and returns the goroutine count.
func settledGoroutines(t *testing.T) int {
	t.Helper()
	waitClusterGoroutines(t, map[string]int{}, "before New (an earlier cluster's)")
	return runtime.NumGoroutine()
}

// waitGoroutines waits for the process to be back at base goroutines.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Stop, %d before New:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}
