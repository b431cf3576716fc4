package cluster_test

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mecoffload/internal/cluster"
	"mecoffload/internal/serve"
)

// staggeredScript drives a 2-shard cluster over two islands, one per
// shard, up to the point a drain starts: island 0 (shard 0) serves 2-slot
// streams and island 1 (shard 1) 40-slot ones, over four slots; two more
// slots let island 0's streams depart; then a wave that the next slot
// admits and evicts arrives at island 0. It returns the ids of island 0's
// streams, island 1's and the wave's.
func staggeredScript(t *testing.T, c *cluster.Cluster) (short, long, wave []uint64) {
	t.Helper()
	for round := 0; round < 4; round++ {
		for st := 0; st < 4; st++ {
			dur := 2
			if st >= 2 {
				dur = 40
			}
			id, _, err := c.Submit(serve.RequestSpec{AccessStation: st, DurationSlots: dur,
				Outcomes: []serve.OutcomeSpec{{RateMBs: 10, Prob: 1, Reward: float64(100 + 10*round + st)}}})
			if err != nil {
				t.Fatal(err)
			}
			if st < 2 {
				short = append(short, id)
			} else {
				long = append(long, id)
			}
		}
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.SubmitBatch(evictedWave([]int{0, 1}, 2))
	if err != nil {
		t.Fatal(err)
	}
	return short, long, res.IDs
}

// TestStaggeredDrain drains a 2-shard cluster whose shard 0 runs dry
// slots before shard 1. The slot after the drain starts, shard 0 admits
// and evicts its last requests — it pulls an arm and is left idle — while
// shard 1's streams run on. Done closes only once both shards are idle;
// until then the idle shard keeps ticking, its ticks allocate nothing
// (the whole cluster tick is pinned at 0 while shard 1 only holds
// streams), Status answers both shards' ids and intake answers 503
// "draining", which it keeps doing until Stop. Every learner in the
// final manifest equals the same run's without the drain (fed every
// slot's reward: the idle shard's exit slot included), and the manifest
// restores at 1 and 3 shards, continuing from the first shard's learner.
func TestStaggeredDrain(t *testing.T) {
	t.Setenv("MEC_ORACLE", "0") // the alloc pin is for the cluster as shipped
	net := islandNetwork(t, 2, 2)
	newCluster := func() (*cluster.Cluster, cluster.Config) {
		cfg := parityConfig(net, 2)
		cfg.CheckpointPath = filepath.Join(t.TempDir(), "cluster.json")
		c, err := cluster.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		t.Cleanup(func() { _ = c.Stop() })
		return c, cfg
	}

	c, cfg := newCluster()
	short, long, wave := staggeredScript(t, c)
	for _, group := range []struct {
		ids   []uint64
		shard int
	}{{short, 0}, {wave, 0}, {long, 1}} {
		for _, id := range group.ids {
			if k, ok := c.ShardOf(id); !ok || k != group.shard {
				t.Fatalf("request %d on shard %d (ok=%v), want %d", id, k, ok, group.shard)
			}
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(cluster.Handler(c))
	defer srv.Close()
	intakeDraining := func(when string) {
		t.Helper()
		resp, out := postJSON(t, srv.URL+"/v1/requests", serve.RequestSpec{AccessStation: 0})
		if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(out), "draining") {
			t.Fatalf("%s: intake answered %d %s, want 503 draining", when, resp.StatusCode, out)
		}
	}
	status := func(when string, id uint64, want string) {
		t.Helper()
		rec, ok, err := c.Status(id)
		if err != nil || !ok || rec.State != want {
			t.Fatalf("%s: request %d answers %+v ok=%v err=%v, want %s", when, id, rec, ok, err, want)
		}
	}

	before := c.Totals()
	if err := c.Tick(); err != nil {
		t.Fatal(err)
	}
	if got := c.Totals(); got.Evicted-before.Evicted != uint64(len(wave)) {
		t.Fatalf("the first drain slot evicted %d of the wave's %d", got.Evicted-before.Evicted, len(wave))
	}
	if !c.ShardIdle(0) || c.ShardIdle(1) || !c.Alive() {
		t.Fatalf("after the wave: shard 0 idle %v, shard 1 idle %v, alive %v; want only shard 0 idle",
			c.ShardIdle(0), c.ShardIdle(1), c.Alive())
	}
	ticks := 1
	intakeDraining("shard 0 idle")
	status("shard 0 idle", short[0], serve.StateCompleted)
	status("shard 0 idle", wave[0], serve.StateEvicted)
	status("shard 0 idle", long[0], serve.StateServing)

	allocs := testing.AllocsPerRun(5, func() {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	})
	ticks += 6
	if allocs != 0 {
		t.Fatalf("a drain tick with shard 0 idle and shard 1 holding only streams allocates %v, want 0", allocs)
	}
	idleFrom := ticks
	for c.Alive() {
		if !c.ShardIdle(0) {
			t.Fatal("the idle shard took work during the drain")
		}
		if c.ShardIdle(1) {
			t.Fatal("both shards idle, but Done is open")
		}
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		ticks++
		if ticks > 100 {
			t.Fatal("drain did not settle in 100 slots")
		}
	}
	<-c.Done()
	if !c.ShardIdle(0) || !c.ShardIdle(1) || ticks <= idleFrom {
		t.Fatalf("Done closed after %d drain slots, shard 1 idle %v: want it later than slot %d, with both shards idle",
			ticks, c.ShardIdle(1), idleFrom)
	}
	t.Logf("shard 0 idle from the drain's first slot, Done after %d drain slots", ticks)
	if err := c.Tick(); !errors.Is(err, serve.ErrStopped) {
		t.Fatalf("Tick after the drain = %v, want ErrStopped", err)
	}
	intakeDraining("drained")
	status("drained", wave[0], serve.StateEvicted)
	status("drained", long[0], serve.StateCompleted)
	// A refused POST leaves its id a hole: the restore continues past it.
	slot, totals, next := c.Slot(), c.Totals(), c.RouterStats().Routed
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Status(long[0]); !errors.Is(err, serve.ErrStopped) {
		t.Fatalf("status after Stop: %v, want ErrStopped", err)
	}

	// The same run without the drain feeds every learner every slot.
	ref, refCfg := newCluster()
	staggeredScript(t, ref)
	for i := 0; i < ticks; i++ {
		if err := ref.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Stop(); err != nil {
		t.Fatal(err)
	}
	want := learnersIn(t, refCfg.CheckpointPath)
	man, snaps := shardSnapshots(t, cfg.CheckpointPath)
	for k, got := range learnersIn(t, cfg.CheckpointPath) {
		if !bytes.Equal(got, want[k]) {
			t.Fatalf("shard %d learner after the drain:\n  got:  %s\n  want: %s (fed every slot's reward)", k, got, want[k])
		}
		if snaps[k].Slot != slot || len(snaps[k].Requests) != 0 {
			t.Fatalf("shard %d snapshot at slot %d with %d requests, want slot %d and none", k, snaps[k].Slot, len(snaps[k].Requests), slot)
		}
	}
	if man.Slot != slot {
		t.Fatalf("final manifest at slot %d, want %d", man.Slot, slot)
	}

	data, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3} {
		rcfg := parityConfig(net, shards)
		rcfg.CheckpointPath = filepath.Join(t.TempDir(), "cluster.json")
		if err := os.WriteFile(rcfg.CheckpointPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := cluster.New(rcfg)
		if err != nil {
			t.Fatalf("restore at %d shards: %v", shards, err)
		}
		r.Start()
		if r.Slot() != slot || r.Totals() != totals {
			t.Fatalf("restore at %d shards: slot %d totals %+v, want %d and %+v", shards, r.Slot(), r.Totals(), slot, totals)
		}
		if id, _, err := r.Submit(serve.RequestSpec{AccessStation: 3}); err != nil || id != next {
			t.Fatalf("restore at %d shards: first id %d (err %v), want %d", shards, id, err, next)
		}
		if err := r.Stop(); err != nil {
			t.Fatal(err)
		}
		for k, got := range learnersIn(t, rcfg.CheckpointPath) {
			if !bytes.Equal(got, want[0]) {
				t.Fatalf("restore at %d shards: shard %d learner:\n  got:  %s\n  want: %s", shards, k, got, want[0])
			}
		}
	}
}
