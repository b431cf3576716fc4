package cluster

// The migration sweep's worklist must stay proportional to live requests,
// and the manifest to what the shard snapshots hold. These tests hold the
// worklist to a model of the routing history kept in the test: it must
// agree with the model on every request that can still be pending, in the
// same order, and a cluster whose sweep is fed the whole history — what the
// sweep walked before the worklist existed — must commit exactly the same
// migrations.

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
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

func byID(a, b routed) int { return cmp.Compare(a.id, b.id) }

// TestWorklistMatchesTableScan drives a router through seeded random
// reservations (single and batched, some left as holes by a refusing shard),
// moves, prunes, window evictions and manifest-style restores against a
// model held here — every id's shard, and the listed spanning requests —
// and requires, after every step, that the worklist is the model's listed
// set in ascending id with each entry's current shard and own candidates,
// and that an id resolves to its shard exactly while the window covers it.
func TestWorklistMatchesTableScan(t *testing.T) {
	const shards, window = 3, 48
	net := chainTestNetwork(t, 6)
	owner := []int{0, 0, 1, 1, 2, 2}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rt := newRouter(net, owner, window)
		placed := map[uint64]int{}    // every id the router was told a shard for
		listed := map[uint64]routed{} // what the worklist must hold
		var next uint64
		reserve := func(n int) {
			routes := make([]routed, n)
			for i := range routes {
				routes[i].shard = rng.Intn(shards)
				if rng.Intn(3) > 0 {
					routes[i].cands = []int{rng.Intn(2), 2 + rng.Intn(4)}
				}
			}
			rt.reserve(routes)
			refuses := -1 // one shard may refuse its share of the batch
			if rng.Intn(4) == 0 {
				refuses = rng.Intn(shards)
			}
			var entries []routed
			for i, r := range routes {
				if r.id != next+uint64(i) {
					t.Fatalf("seed %d: reserve handed out %d, want %d", seed, r.id, next+uint64(i))
				}
				placed[r.id] = r.shard
				if r.cands != nil && r.shard != refuses {
					entries, listed[r.id] = append(entries, r), r
				}
			}
			rt.list(entries)
			next += uint64(n)
		}
		check := func(step int, op string) {
			t.Helper()
			want := make([]routed, 0, len(listed))
			for _, sc := range listed {
				want = append(want, sc)
			}
			slices.SortFunc(want, byID)
			if got := rt.spanningRequests(nil); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
				t.Fatalf("seed %d step %d (%s): worklist\n got  %v\n want %v", seed, step, op, got, want)
			}
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
			case k < 14:
				op = "move"
				if next == 0 {
					continue
				}
				// May name an id the window has passed: the worklist entry
				// moves all the same.
				id := uint64(rng.Int63n(int64(next)))
				shard, keep := rng.Intn(shards), rng.Intn(4) > 0
				if _, ok := placed[id]; !ok {
					continue // a hole a restore left: no request to move
				}
				rt.move(id, shard, keep)
				placed[id] = shard
				if sc, ok := listed[id]; ok && keep {
					sc.shard = shard
					listed[id] = sc
				} else {
					delete(listed, id)
				}
			case k < 19:
				op = "prune"
				var done []uint64
				for _, sc := range rt.spanningRequests(nil) {
					if rng.Intn(3) == 0 {
						done = append(done, sc.id)
						delete(listed, sc.id)
					}
				}
				// Requests listed after the sweep's snapshot stay.
				if len(done) > 0 && rng.Intn(2) == 0 {
					reserve(8)
				}
				rt.pruneSpanning(done)
			default:
				op = "restore"
				// composeRestore: a fresh router told the live requests in
				// ascending id — here the listed ones plus a few unlisted
				// (running streams), some older than the window can cover.
				live := make([]routed, 0, len(listed))
				for _, sc := range listed {
					live = append(live, sc)
				}
				for id, shard := range placed {
					if _, ok := listed[id]; !ok && rng.Intn(8) == 0 {
						live = append(live, routed{id: id, shard: shard})
					}
				}
				slices.SortFunc(live, byID)
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

// sweepRun is what one scripted cluster run leaves behind.
type sweepRun struct {
	journal   []Migration // every entry, in append order
	decisions []string    // one line per slot: admitted ids and reward
	listed    int         // worklist length at the end
	history   int         // spanning requests ever listed
	maxListed int         // largest worklist seen right after a sweep
}

// runSweepScript drives a 2-shard cluster over a 4-station chain through
// a seeded submit/flush/tick schedule with the sweep on every other slot
// and a low hysteresis, so handoffs commit, the burst cap bites and most
// requests settle between sweeps. The run keeps every spanning request the
// worklist ever showed it, at the last shard it was seen on; with
// useReference the router's worklist is overwritten with that whole history
// before every tick, so the sweep walks it like the table scan did.
// afterSweep, when set, runs after every sweep slot.
func runSweepScript(t *testing.T, slots int, useReference bool, afterSweep func(c *Cluster)) sweepRun {
	t.Helper()
	var run sweepRun
	net := chainTestNetwork(t, 4)
	c, err := New(Config{
		Net:                 net,
		Shards:              2,
		DynamicRR:           sim.DynamicRROptions{RoundingDenominator: 1},
		Seed:                11,
		MigrationEvery:      2,
		MigrationBurst:      2,
		MigrationHysteresis: 0.01,
		SlotObserver: func(slot int, admitted []uint64, reward float64) {
			run.decisions = append(run.decisions, fmt.Sprintf("%d %v %.6f", slot, admitted, reward))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer func() { _ = c.Stop() }()

	rng := rand.New(rand.NewSource(23))
	history := map[uint64]routed{}
	var seen uint64
	for slot := 0; slot < slots; slot++ {
		var specs []serve.RequestSpec
		for i := rng.Intn(7); i > 0; i-- {
			specs = append(specs, serve.RequestSpec{
				AccessStation: rng.Intn(net.NumStations()),
				DurationSlots: 2 + rng.Intn(3),
				DeadlineMS:    float64(150 + 50*rng.Intn(8)),
				Outcomes:      []serve.OutcomeSpec{{RateMBs: float64(40 + 20*rng.Intn(4)), Prob: 1, Reward: float64(100 + rng.Intn(300))}},
			})
		}
		if _, err := c.SubmitBatch(specs); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, sc := range c.router.spanningRequests(nil) {
			history[sc.id] = sc // a pruned request settled on the shard it was last seen on
		}
		if useReference {
			c.router.mu.Lock()
			c.router.span = c.router.span[:0]
			for _, sc := range history {
				c.router.span = append(c.router.span, sc)
			}
			slices.SortFunc(c.router.span, byID)
			c.router.mu.Unlock()
		}
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		c.migMu.Lock()
		if c.journalN-seen > journalCap {
			t.Fatalf("slot %d: %d journal entries in one slot overran the ring", slot, c.journalN-seen)
		}
		for ; seen < c.journalN; seen++ {
			run.journal = append(run.journal, c.journal[seen%journalCap])
		}
		c.migMu.Unlock()
		if (slot+1)%2 == 0 {
			run.maxListed = max(run.maxListed, len(c.router.spanningRequests(nil)))
			if afterSweep != nil {
				afterSweep(c)
			}
		}
	}
	run.listed = len(c.router.spanningRequests(nil))
	run.history = len(history)
	return run
}

func commitsOf(journal []Migration) []Migration {
	var out []Migration
	for _, m := range journal {
		if m.Phase == PhaseCommitted {
			out = append(out, m)
		}
	}
	return out
}

// TestSweepDifferentialAgainstTableScan: the same schedule through the
// pruned worklist and through the reference (the full routing history,
// every sweep) commits the same (global, from, to, slot) sequence at the
// same prices and emits the same decision stream — dropping a request the
// first time it is seen settled never changes what the sweep decides.
func TestSweepDifferentialAgainstTableScan(t *testing.T) {
	const slots = 60
	got := runSweepScript(t, slots, false, nil)
	ref := runSweepScript(t, slots, true, nil)
	gc, rc := commitsOf(got.journal), commitsOf(ref.journal)
	if len(gc) < 5 {
		t.Fatalf("only %d commits in %d slots: the schedule no longer exercises the handoff", len(gc), slots)
	}
	if !reflect.DeepEqual(gc, rc) {
		t.Fatalf("commit sequences differ\n worklist  %+v\n reference %+v", gc, rc)
	}
	if !reflect.DeepEqual(got.decisions, ref.decisions) {
		t.Fatalf("decision streams differ\n worklist  %v\n reference %v", got.decisions, ref.decisions)
	}
	if got.history != ref.history || got.history < 100 {
		t.Fatalf("routing history: worklist run %d, reference run %d, want equal and >= 100", got.history, ref.history)
	}
	if got.listed*4 > got.history {
		t.Fatalf("worklist still holds %d of %d routed spanning requests: nothing was pruned", got.listed, got.history)
	}
}

// TestWorklistTracksLiveRequests: right after a sweep every listed
// request is still pending at its shard, so the list is bounded by the
// pending set (plus, between sweeps, whatever settled since) and a run
// ten times longer does not grow it.
func TestWorklistTracksLiveRequests(t *testing.T) {
	allPending := func(c *Cluster) {
		for _, sc := range c.router.spanningRequests(nil) {
			rec, ok, err := c.nodes[sc.shard].eng.Status(sc.id)
			if err != nil || !ok || rec.State != serve.StatePending {
				t.Fatalf("slot %d: request %d still listed after the sweep in state %q (known=%v, err=%v)",
					c.Slot(), sc.id, rec.State, ok, err)
			}
		}
	}
	short := runSweepScript(t, 40, false, allPending)
	long := runSweepScript(t, 400, false, allPending)
	if long.history < 5*short.history {
		t.Fatalf("routing history %d -> %d: the long run did not add history", short.history, long.history)
	}
	// Pending requests live at most their deadline (500 ms = 10 slots) at
	// up to 6 arrivals a slot, whatever the run length.
	if long.maxListed > 60 {
		t.Fatalf("worklist peaked at %d entries after %d routed spanning requests (%d after %d)",
			long.maxListed, long.history, short.maxListed, short.history)
	}
}

// TestJournalSettledOnce pins the journal's semantics: a request is
// recorded as aborted/"settled" when it leaves the worklist and never
// again, and a quiet cluster's later sweeps leave earlier commits in the
// journal instead of flushing them out with re-reports.
func TestJournalSettledOnce(t *testing.T) {
	const slots = 80
	var quietCommits, quietJournal int
	run := runSweepScript(t, slots, false, func(c *Cluster) {
		if c.Slot() != slots {
			return
		}
		// The schedule is over: let everything settle, then keep sweeping.
		want := commitsOf(c.Migrations())
		for i := 0; i < 4*journalCap; i++ {
			if err := c.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(c.router.spanningRequests(nil)); n != 0 {
			t.Fatalf("%d requests still listed on an idle cluster", n)
		}
		got := commitsOf(c.Migrations())
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("commits in the journal before the quiet sweeps %+v, after %+v", want, got)
		}
		quietCommits, quietJournal = len(got), len(c.Migrations())
	})
	if quietCommits == 0 || quietJournal > journalCap {
		t.Fatalf("quiet phase kept %d commits in a %d-entry journal", quietCommits, quietJournal)
	}
	settledAt := map[uint64]int{}
	for _, m := range run.journal {
		if m.Reason != "settled" {
			continue
		}
		if m.Phase != PhaseAborted {
			t.Fatalf("settled entry in phase %q: %+v", m.Phase, m)
		}
		if prev, dup := settledAt[m.Global]; dup {
			t.Fatalf("request %d journaled as settled at slot %d and again at slot %d", m.Global, prev, m.Slot)
		}
		settledAt[m.Global] = m.Slot
	}
	if len(settledAt) == 0 {
		t.Fatal("no request was journaled as settled: the schedule no longer exercises the abort")
	}
}

// TestJournalRing: the journal is a fixed ring; Migrations returns a
// copy, oldest first, of at most journalCap entries.
func TestJournalRing(t *testing.T) {
	c := &Cluster{}
	if got := c.Migrations(); len(got) != 0 {
		t.Fatalf("empty journal returned %d entries", len(got))
	}
	for _, n := range []int{3, journalCap, journalCap + 1, 3*journalCap + 7} {
		for c.journalN < uint64(n) {
			c.journalAppend(Migration{Global: c.journalN})
		}
		got := c.Migrations()
		want := min(n, journalCap)
		if len(got) != want {
			t.Fatalf("after %d appends: %d entries, want %d", n, len(got), want)
		}
		for i, m := range got {
			if m.Global != uint64(n-want+i) {
				t.Fatalf("after %d appends: entry %d is append #%d, want #%d", n, i, m.Global, n-want+i)
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

// TestConcurrentSubmitsKeepWorklistSorted: submitters reserve ids in one
// order and list their spanning requests in another (whoever's engines
// answer first), so a listing can land behind ids reserved after it; the
// worklist must come out ascending with every accepted spanning request on
// it exactly once, whatever the interleaving.
func TestConcurrentSubmitsKeepWorklistSorted(t *testing.T) {
	net := chainTestNetwork(t, 4)
	c, err := New(Config{Net: net, Shards: 2, Seed: 9, MigrationEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer func() { _ = c.Stop() }()
	const workers, rounds = 4, 40
	accepted := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			spec := serve.RequestSpec{AccessStation: w, DurationSlots: 2, DeadlineMS: 2000,
				Outcomes: []serve.OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: 100}}}
			for i := 0; i < rounds; i++ {
				if i%2 == 0 {
					if id, _, err := c.Submit(spec); err == nil {
						accepted[w] = append(accepted[w], id)
					}
					continue
				}
				if res, err := c.SubmitBatch([]serve.RequestSpec{spec, spec, spec}); err == nil {
					accepted[w] = append(accepted[w], res.IDs...)
				}
			}
		}(w)
	}
	wg.Wait()
	var want []uint64
	for _, ids := range accepted {
		want = append(want, ids...)
	}
	slices.Sort(want)
	var got []uint64
	for _, sc := range c.router.spanningRequests(nil) {
		got = append(got, sc.id)
	}
	if rs := c.RouterStats(); rs.Spanning != rs.Routed || len(want) == 0 {
		t.Fatalf("%d of %d routed requests span the shards: the chain no longer makes every request spanning", rs.Spanning, rs.Routed)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("worklist %v\naccepted %v", got, want)
	}
}
