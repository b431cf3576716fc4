package cluster

import (
	"errors"
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
	rt := newRouter(net, []int{0, 0, 1, 1}, maxRouted)
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

// TestTakeReportsDoubleBuffer pins the reward-aggregation floor: the
// observe/takeReports cycle of a shard node reuses the same two report
// buffers in steady state, so the lockstep tick's fan-in allocates
// nothing once both buffers have grown to the slot's report count.
func TestTakeReportsDoubleBuffer(t *testing.T) {
	nd := &shardNode{}
	ext := []uint64{1, 2, 3}
	// Warm both halves of the double buffer.
	for i := 0; i < 2; i++ {
		nd.observe(i, ext, 10)
		nd.takeReports()
	}
	allocs := testing.AllocsPerRun(500, func() {
		nd.observe(7, ext, 10)
		r := nd.takeReports()
		if len(r) != 1 || r[0].reward != 10 {
			t.Fatalf("reports = %+v", r)
		}
	})
	if allocs != 0 {
		t.Fatalf("observe/takeReports cycle allocates %v per run, want 0", allocs)
	}
	// The handed-out slice must survive until the next takeReports even
	// while new reports accumulate.
	nd.observe(8, ext, 1)
	r := nd.takeReports()
	nd.observe(9, ext, 2)
	if len(r) != 1 || r[0].slot != 8 {
		t.Fatalf("stale buffer overwritten: %+v", r)
	}
}

// TestIdleTickEpochAllocFree pins the epoch machine's floor: one cluster
// tick — the epoch broadcast to the shard workers, the fused feedback
// delivery, both engines' slots, the report fan-in, and the SlotObserver
// callback — allocates NOTHING on an idle slot, across all goroutines. The
// old per-tick `go func` spawn plus the `sort.Slice` closure made this
// impossible; a regression here means something put per-slot garbage back
// on the clock path. The pin is for the cluster as shipped: MEC_ORACLE=1
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
	// Warm every reusable buffer: the epoch WaitGroup, report
	// double-buffers, the admitted scratch.
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
	// An idle engine exits as soon as it drains; its reply may lose to that.
	if err := c.nodes[1].eng.Drain(); err != nil && !errors.Is(err, serve.ErrStopped) {
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

// TestClusterGoroutines: a shard costs one goroutine, its epoch worker,
// and shard 0 not even that — the clock runs its share of every epoch
// itself. New plus Start on the manual clock without a checkpoint path
// adds exactly shards − 1 goroutines, and Stop takes them all down.
func TestClusterGoroutines(t *testing.T) {
	net := allocTestNetwork(t)
	for _, shards := range []int{1, 2, 4} {
		base := settledGoroutines(t)
		c, err := New(Config{Net: net, Shards: shards, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		if got := runtime.NumGoroutine() - base; got != shards-1 {
			t.Fatalf("%d shards: New + Start added %d goroutines, want %d epoch workers", shards, got, shards-1)
		}
		if err := c.Stop(); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, base)
	}
}

// TestStopLeavesNoGoroutines: a started 2-shard cluster with a checkpoint
// path runs one epoch worker (shard 1's) and the checkpoint writer; after
// a Stop that follows batches, slots, checkpoints and a drain, neither is
// left. The census counts goroutines by the function they run, so another
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
	waitClusterGoroutines(t, map[string]int{epochWorker: 1, writerLoop: 1}, "a started 2-shard cluster (shard 1's epoch worker, the checkpoint writer)")
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

// The functions a cluster's goroutines run: the epoch worker of every
// shard but shard 0, the checkpoint writer's loop with a checkpoint path,
// and the wall clock with a tick interval.
const (
	epochWorker = "cluster.(*shardNode).epochWorker"
	writerLoop  = "ckpt.(*Writer).loop"
	ticker      = "cluster.(*Cluster).runTicker"
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
		for _, fn := range []string{epochWorker, writerLoop, ticker} {
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
