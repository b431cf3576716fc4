package cluster

// The manifest must hold what the shard snapshots hold, however much was
// routed before, and a live request answers its status however much was
// routed after it.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"mecoffload/internal/graph"
	"mecoffload/internal/mec"
	"mecoffload/internal/serve"
	"mecoffload/internal/sim"
	"mecoffload/internal/topology"
)

// chainTestNetwork builds n stations on one backhaul chain: a single
// component, so two or more shards cut it into contiguous chunks and
// nearly every candidate set spans them.
func chainTestNetwork(t testing.TB, n int) *mec.Network {
	t.Helper()
	g := graph.New(n)
	nodes := make([]topology.Node, n)
	stations := make([]mec.BaseStation, n)
	for i := 0; i < n; i++ {
		nodes[i] = topology.Node{X: float64(i) * 0.01}
		stations[i] = mec.BaseStation{CapacityMHz: 3200, SpeedFactor: 1}
		if i > 0 {
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

// TestManifestIDsAreLiveIDs: however much the router has routed, the
// manifest carries no per-request entry of its own — the shard snapshots
// speak cluster ids themselves — and each shard's snapshot holds exactly the requests live on that shard, which restore under their ids
// at 1, 2 and 8 shards.
func TestManifestIDsAreLiveIDs(t *testing.T) {
	net := chainTestNetwork(t, 8)
	dir := t.TempDir()
	manifest := filepath.Join(dir, "cluster.json")
	cfg := Config{
		Net:            net,
		Shards:         2,
		DynamicRR:      sim.DynamicRROptions{RoundingDenominator: 1},
		Seed:           7,
		CheckpointPath: manifest,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	spec := func(i int) serve.RequestSpec {
		return serve.RequestSpec{
			AccessStation: i % net.NumStations(),
			DurationSlots: 1,
			DeadlineMS:    400,
			Outcomes:      []serve.OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: float64(100 + i%7)}},
		}
	}
	// History: 120 requests that all settle and depart.
	submitted := 0
	for slot := 0; slot < 30; slot++ {
		for i := 0; i < 4; i++ {
			if _, _, err := c.Submit(spec(submitted)); err != nil {
				t.Fatal(err)
			}
			submitted++
		}
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	// Live: six requests, never ticked, so nothing is mid-stream and the
	// manifest restores onto any partition.
	var live []uint64
	for i := 0; i < 6; i++ {
		id, _, err := c.Submit(spec(submitted))
		if err != nil {
			t.Fatal(err)
		}
		submitted++
		live = append(live, id)
	}
	home := map[uint64]int{}
	for _, id := range live {
		shard, ok := c.ShardOf(id)
		if !ok {
			t.Fatalf("live request %d is on no shard", id)
		}
		home[id] = shard
	}
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	<-c.Done()

	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	if man.Version != ManifestVersion || man.NextGlobalID != uint64(submitted) || bytes.Contains(data, []byte(`"ids"`)) {
		t.Fatalf("manifest version %d, next id %d (want %d, %d), or it carries an id table:\n%s", man.Version, man.NextGlobalID, ManifestVersion, submitted, data)
	}
	var inSnaps []uint64
	for _, sh := range man.Shards {
		for _, cr := range sh.Checkpoint.Requests {
			if shard, ok := home[cr.ExternalID]; !ok || shard != sh.Index {
				t.Fatalf("shard %d checkpoint holds request %d, which shard %d held (live=%v)", sh.Index, cr.ExternalID, shard, ok)
			}
			inSnaps = append(inSnaps, cr.ExternalID)
		}
	}
	slices.Sort(inSnaps)
	if !slices.Equal(inSnaps, live) {
		t.Fatalf("shard checkpoints hold requests %v, live are %v (of %d routed)", inSnaps, live, submitted)
	}

	for _, shards := range []int{1, 2, 8} {
		rcfg := cfg
		rcfg.Shards = shards
		rc, err := New(rcfg)
		if err != nil {
			t.Fatalf("restore at %d shards: %v", shards, err)
		}
		rc.Start()
		if got := rc.RouterStats().Routed; got != uint64(submitted) {
			t.Fatalf("restore at %d shards: id allocator at %d, want %d", shards, got, submitted)
		}
		for g := uint64(0); g < uint64(submitted); g++ {
			rec, ok, err := rc.Status(g)
			if err != nil {
				t.Fatal(err)
			}
			if ok != slices.Contains(live, g) || (ok && (rec.ID != g || rec.State != serve.StatePending)) {
				t.Fatalf("restore at %d shards: request %d known=%v as %+v", shards, g, ok, rec)
			}
		}
		// Stop rewrites the manifest, at this shard count, for the next round.
		if err := rc.Stop(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLiveRequestOutlivesRouterEntry: a stream that is still running after
// later submits answers its status as serving, and is checkpointed and
// restored like any other live request, answering serving again. (With a
// per-request router table bounded by age, such a stream first had no
// entry in the manifest's id table and every manifest written from then on
// refused to restore; later it answered unknown once the router's id window
// had moved past it. The router now keeps no entry to outlive.)
func TestLiveRequestOutlivesRouterEntry(t *testing.T) {
	cfg := Config{
		Net:            chainTestNetwork(t, 4),
		Shards:         1,
		Seed:           3,
		CheckpointPath: filepath.Join(t.TempDir(), "cluster.json"),
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	spec := serve.RequestSpec{AccessStation: 1, DurationSlots: 500, Outcomes: []serve.OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: 100}}}
	stream, _, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Tick(); err != nil {
		t.Fatal(err)
	}
	if rec, ok, err := c.Status(stream); err != nil || !ok || rec.State != serve.StateServing {
		t.Fatalf("stream %d: %+v ok=%v err=%v, want serving", stream, rec, ok, err)
	}
	spec.DurationSlots = 1
	for i := 0; i < 8; i++ {
		if _, _, err := c.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	if rec, ok, err := c.Status(stream); err != nil || !ok || rec.State != serve.StateServing {
		t.Fatalf("stream %d after 8 more submits: %+v ok=%v err=%v, want serving", stream, rec, ok, err)
	}
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}

	rc, err := New(cfg)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	rc.Start()
	defer func() { _ = rc.Stop() }()
	if rec, ok, err := rc.engines[0].Status(stream); err != nil || !ok || rec.State != serve.StateServing {
		t.Fatalf("restored stream %d on its shard: %+v ok=%v err=%v, want serving", stream, rec, ok, err)
	}
	if rec, ok, err := rc.Status(stream); err != nil || !ok || rec.State != serve.StateServing {
		t.Fatalf("restored stream %d by its id: %+v ok=%v err=%v, want serving", stream, rec, ok, err)
	}
	if id, _, err := rc.Submit(spec); err != nil || id != 9 {
		t.Fatalf("first id after the restore %d (err %v), want 9", id, err)
	}
}
