package cluster

// The router's id window must agree with a model of the routing history
// kept in the test, the handoff journal must stay a bounded ring, and the
// manifest must hold what the shard snapshots hold, however much was
// routed before.

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
// reservations (single and batched), moves, window evictions and
// manifest-style restores, which leave holes where an id was not brought
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
			switch k := rng.Intn(20); {
			case k < 8:
				op = "reserve"
				reserve(1)
			case k < 10:
				op = "reserve batch"
				reserve(2 + rng.Intn(9))
			case k < 19:
				op = "move"
				if next == 0 {
					continue
				}
				// May name an id the window has passed: nothing changes
				// that a lookup could see.
				id := uint64(rng.Int63n(int64(next)))
				if _, ok := placed[id]; !ok {
					continue // a hole a restore left: no request to move
				}
				shard := rng.Intn(shards)
				rt.move(id, shard)
				placed[id] = shard
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

// TestJournalRing: every handoff attempt appends one entry to a fixed
// ring — committed when the request moved, aborted with its reason when it
// did not — and Migrations returns a copy, oldest first, of at most
// journalCap entries.
func TestJournalRing(t *testing.T) {
	c, err := New(Config{Net: chainTestNetwork(t, 4), Shards: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer func() { _ = c.Stop() }()
	if got := c.Migrations(); len(got) != 0 {
		t.Fatalf("empty journal returned %d entries", len(got))
	}
	moved, _, err := c.Submit(serve.RequestSpec{AccessStation: 0, DurationSlots: 1, Outcomes: []serve.OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: 100}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	handoff := func(id uint64) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.handoff(id, 0, 1, c.parts[1][0])
	}
	handoff(moved)
	if got, want := c.Migrations(), (Migration{Global: moved, From: 0, To: 1, Phase: PhaseCommitted}); len(got) != 1 || got[0] != want {
		t.Fatalf("journal after one committed handoff: %+v, want [%+v]", got, want)
	}
	if shard, ok := c.router.lookup(moved); !ok || shard != 1 {
		t.Fatalf("request %d handed off to shard 1 resolves to shard %d (known=%v)", moved, shard, ok)
	}
	// No shard holds ids from 1000 on: every further attempt aborts.
	for _, n := range []int{3, journalCap, journalCap + 1, 3*journalCap + 7} {
		for c.journalN < uint64(n) {
			handoff(1000 + c.journalN)
		}
		got := c.Migrations()
		want := min(n, journalCap)
		if len(got) != want {
			t.Fatalf("after %d attempts: %d entries, want %d", n, len(got), want)
		}
		for i, m := range got {
			attempt := uint64(n - want + i)
			if attempt == 0 {
				continue // the committed handoff
			}
			if m.Global != 1000+attempt || m.Phase != PhaseAborted || m.Reason == "" {
				t.Fatalf("after %d attempts: entry %d is %+v, want attempt #%d aborted with a reason", n, i, m, attempt)
			}
		}
		got[0].Global = ^uint64(0)
		if c.Migrations()[0].Global == ^uint64(0) {
			t.Fatal("Migrations returned the journal's own storage")
		}
	}
}

// TestManifestIDsAreLiveIDs: however much the router has routed, a
// version-2 manifest carries no per-request entry at all — the shard
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
	if man.Version != 2 || man.NextGlobalID != uint64(submitted) || bytes.Contains(data, []byte(`"ids"`)) {
		t.Fatalf("manifest version %d, next id %d (want 2, %d), or it carries an id table:\n%s", man.Version, man.NextGlobalID, submitted, data)
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
