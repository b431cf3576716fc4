package cluster

// The router's id window must agree with a model of the routing history
// kept in the test, and the manifest must hold what the shard snapshots
// hold, however much was routed before.

import (
	"bytes"
	"cmp"
	"encoding/json"
	"math/rand"
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

// TestWorklistMatchesTableScan drives a router through seeded random
// reservations (single and batched), window evictions and manifest-style
// restores, which leave holes where an id was not brought
// back, against a model held here — every id's shard — and requires, after
// every step, that an id resolves to its shard exactly while the window
// covers it and that the window never holds more than its bound.
func TestWorklistMatchesTableScan(t *testing.T) {
	const shards, window = 3, 48
	net := chainTestNetwork(t, 6)
	owner := []int{0, 0, 1, 1, 2, 2}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rt := newRouter(net, owner, window)
		placed := map[uint64]int{} // every id the router was told a shard for
		var next uint64
		reserve := func(n int) {
			routes := make([]routed, n)
			for i := range routes {
				routes[i].shard = rng.Intn(shards)
			}
			rt.reserve(routes)
			for i, r := range routes {
				if r.id != next+uint64(i) {
					t.Fatalf("seed %d: reserve handed out %d, want %d", seed, r.id, next+uint64(i))
				}
				placed[r.id] = r.shard
			}
			next += uint64(n)
		}
		check := func(step int, op string) {
			t.Helper()
			if rt.stats().Routed != next || len(rt.shards) > window {
				t.Fatalf("seed %d step %d (%s): routed %d (want %d), window holds %d > %d",
					seed, step, op, rt.stats().Routed, next, len(rt.shards), window)
			}
			for id := uint64(0); id <= next; id++ {
				shard, known := placed[id]
				known = known && id+window >= next
				if got, ok := rt.lookup(id); ok != known || (ok && got != shard) {
					t.Fatalf("seed %d step %d (%s): lookup(%d) = %d, %v; model %d, %v (next %d)", seed, step, op, id, got, ok, shard, known, next)
				}
			}
		}
		for step := 0; step < 600; step++ {
			var op string
			switch k := rng.Intn(11); {
			case k < 8:
				op = "reserve"
				reserve(1)
			case k < 10:
				op = "reserve batch"
				reserve(2 + rng.Intn(9))
			default:
				op = "restore"
				// composeRestore: a fresh router told the live requests in
				// ascending id — here a random third of the placed ones,
				// some older than the window can cover.
				var live []routed
				for id, shard := range placed {
					if rng.Intn(3) == 0 {
						live = append(live, routed{id: id, shard: shard})
					}
				}
				slices.SortFunc(live, func(a, b routed) int { return cmp.Compare(a.id, b.id) })
				rt = newRouter(net, owner, window)
				rt.restore(next, live)
				placed = map[uint64]int{}
				for _, sc := range live {
					placed[sc.id] = sc.shard
				}
			}
			check(step, op)
		}
		if next < 4*window {
			t.Fatalf("seed %d: only %d ids, the window never moved", seed, next)
		}
	}
}

// TestManifestIDsAreLiveIDs: however much the router has routed, a
// version-3 manifest carries no per-request entry at all — the shard
// snapshots speak cluster ids themselves — and each shard file holds
// exactly the requests live on that shard, which restore under their ids
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
	if man.Version != 3 || man.NextGlobalID != uint64(submitted) || bytes.Contains(data, []byte(`"ids"`)) {
		t.Fatalf("manifest version %d, next id %d (want 3, %d), or it carries an id table:\n%s", man.Version, man.NextGlobalID, submitted, data)
	}
	var inSnaps []uint64
	for _, sh := range man.Shards {
		ck, err := serve.LoadCheckpoint(filepath.Join(dir, sh.File))
		if err != nil {
			t.Fatal(err)
		}
		for _, cr := range ck.Requests {
			if shard, ok := c.router.lookup(cr.ExternalID); !ok || shard != sh.Index {
				t.Fatalf("shard %d file holds request %d, which the router placed on shard %d (known=%v)", sh.Index, cr.ExternalID, shard, ok)
			}
			inSnaps = append(inSnaps, cr.ExternalID)
		}
	}
	slices.Sort(inSnaps)
	if !slices.Equal(inSnaps, live) {
		t.Fatalf("shard files hold requests %v, live are %v (of %d routed)", inSnaps, live, submitted)
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
// the router's window has moved past its id is checkpointed and restored
// like any other live request. (With a per-request router table bounded by
// age, such a stream had no entry in the manifest's id table and every
// manifest written from then on refused to restore.)
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
	c.router = newRouter(c.net, c.owner, 4)
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
	if _, ok, err := c.Status(stream); ok || err != nil {
		t.Fatalf("stream %d is below a 4-id window after 8 more submits, but Status says known=%v err=%v", stream, ok, err)
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
	if rec, ok, err := rc.nodes[0].eng.Status(stream); err != nil || !ok || rec.State != serve.StateServing {
		t.Fatalf("restored stream %d on its shard: %+v ok=%v err=%v, want serving", stream, rec, ok, err)
	}
	if rec, ok, err := rc.Status(stream); err != nil || (ok && rec.State != serve.StateServing) {
		t.Fatalf("restored stream %d by its id: %+v ok=%v err=%v, want unknown or serving", stream, rec, ok, err)
	}
	if id, _, err := rc.Submit(spec); err != nil || id != 9 {
		t.Fatalf("first id after the restore %d (err %v), want 9", id, err)
	}
}
