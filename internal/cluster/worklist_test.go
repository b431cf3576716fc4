package cluster

// The migration sweep's worklist and the manifest id table are both
// indexes over the router's table that must stay proportional to live
// requests. These tests hold them to the table they index: a test-only
// reference that scans the whole table and sorts (what the sweep itself
// did before the worklist existed) must agree with the worklist on every
// id that can still be pending, in the same order, and a cluster fed the
// reference must commit exactly the same migrations.

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
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

// referenceSpanning is the sweep's worklist as it was computed before the
// router kept one: every table entry with spanning candidates, settled or
// not, sorted by global id.
func referenceSpanning(rt *router) []spanCandidate {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	var out []spanCandidate
	for g, loc := range rt.table {
		if len(loc.cands) > 0 {
			out = append(out, spanCandidate{global: g, shard: loc.shard, ext: loc.ext, cands: loc.cands})
		}
	}
	slices.SortFunc(out, func(a, b spanCandidate) int { return cmp.Compare(a.global, b.global) })
	return out
}

// TestWorklistMatchesTableScan drives a router through seeded random
// binds, rebinds, prunes, MaxRouted evictions and manifest-style restores
// and requires, after every step, that the worklist is the reference scan
// minus the pruned ids: same entries, same ascending order.
func TestWorklistMatchesTableScan(t *testing.T) {
	const shards, maxRouted = 3, 48
	net := chainTestNetwork(t, 6)
	owner := []int{0, 0, 1, 1, 2, 2}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rt := newRouter(net, owner, mec.DefaultSlotLengthMS, shards, maxRouted)
		nextExt := make([]uint64, shards)
		pruned := map[uint64]bool{}
		newExt := func(shard int) uint64 {
			nextExt[shard]++
			return nextExt[shard] - 1
		}
		check := func(step int, op string) {
			t.Helper()
			var want []spanCandidate
			for _, sc := range referenceSpanning(rt) {
				if !pruned[sc.global] {
					want = append(want, sc)
				}
			}
			got := rt.spanningRequests(nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d (%s): worklist\n got  %v\n want %v", seed, step, op, got, want)
			}
		}
		for step := 0; step < 600; step++ {
			var op string
			switch k := rng.Intn(20); {
			case k < 10:
				op = "bind"
				shard := rng.Intn(shards)
				var cands []int
				if rng.Intn(3) > 0 {
					cands = []int{rng.Intn(2), 2 + rng.Intn(4)}
				}
				rt.bind(shard, newExt(shard), cands)
			case k < 14:
				op = "rebind"
				if rt.nextGlobal == 0 {
					continue
				}
				// May name an evicted id; rebind must then refuse.
				g := uint64(rng.Int63n(int64(rt.nextGlobal)))
				shard := rng.Intn(shards)
				keep := rng.Intn(4) > 0
				_, known := rt.table[g]
				if rt.rebind(g, shard, newExt(shard), keep) != known {
					t.Fatalf("seed %d step %d: rebind(%d) known=%v", seed, step, g, known)
				}
			case k < 19:
				op = "prune"
				var done []uint64
				for _, sc := range rt.spanningRequests(nil) {
					if rng.Intn(3) == 0 {
						done = append(done, sc.global)
						pruned[sc.global] = true
					}
				}
				// The sweep may also hand back an id evicted meanwhile.
				if len(done) > 0 && rng.Intn(2) == 0 {
					for i := 0; i < 8; i++ {
						rt.bind(0, newExt(0), nil)
					}
				}
				rt.pruneSpanning(done)
			default:
				op = "restore"
				// composeRestore: a fresh router, every live request bound
				// again at its old global id, ascending.
				var live []uint64
				for g := range rt.table {
					if !pruned[g] {
						live = append(live, g)
					}
				}
				slices.Sort(live)
				fresh := newRouter(net, owner, mec.DefaultSlotLengthMS, shards, maxRouted)
				nextExt = make([]uint64, shards)
				for _, g := range live {
					loc := rt.table[g]
					fresh.bindAt(g, loc.shard, newExt(loc.shard), loc.cands)
				}
				fresh.setNextGlobal(rt.nextGlobal)
				rt, pruned = fresh, map[uint64]bool{}
			}
			check(step, op)
			if len(rt.table) > maxRouted {
				t.Fatalf("seed %d step %d: table holds %d > MaxRouted %d", seed, step, len(rt.table), maxRouted)
			}
		}
	}
}

// sweepRun is what one scripted cluster run leaves behind.
type sweepRun struct {
	journal   []Migration // every entry, in append order
	decisions []string    // one line per slot: admitted ids and reward
	listed    int         // worklist length at the end
	history   int         // reference-scan length at the end
	maxListed int         // largest worklist seen right after a sweep
}

// runSweepScript drives a 2-shard cluster over a 4-station chain through
// a seeded submit/flush/tick schedule with the sweep on every other slot
// and a low hysteresis, so handoffs commit, the burst cap bites and most
// requests settle between sweeps. With useReference the router's worklist
// is overwritten from the reference scan before every tick, so the sweep
// walks the whole routing history like the table scan did. afterSweep,
// when set, runs after every sweep slot.
func runSweepScript(t *testing.T, slots int, useReference bool, afterSweep func(c *Cluster)) sweepRun {
	t.Helper()
	var run sweepRun
	net := chainTestNetwork(t, 4)
	c, err := New(Config{
		Net:                 net,
		Shards:              2,
		SchedulerName:       "dynamicrr",
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
		if useReference {
			ref := referenceSpanning(c.router)
			c.router.mu.Lock()
			c.router.span = c.router.span[:0]
			for _, sc := range ref {
				c.router.span = append(c.router.span, sc.global)
			}
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
	run.history = len(referenceSpanning(c.router))
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
			rec, ok, err := c.nodes[sc.shard].eng.Status(sc.ext)
			if err != nil || !ok || rec.State != serve.StatePending {
				t.Fatalf("slot %d: request %d still listed after the sweep in state %q (known=%v, err=%v)",
					c.Slot(), sc.global, rec.State, ok, err)
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
// shard's manifest id table names exactly the requests in that shard's
// snapshot; and a manifest that also carries a pair for every request
// ever routed — what the table held before it was built from the
// snapshot — restores to the same cluster at 1, 2 and 8 shards.
func TestManifestIDsAreLiveIDs(t *testing.T) {
	net := chainTestNetwork(t, 8)
	dir := t.TempDir()
	manifest := filepath.Join(dir, "cluster.json")
	cfg := Config{
		Net:            net,
		Shards:         2,
		SchedulerName:  "dynamicrr",
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
	type routed struct {
		shard int
		ext   uint64
	}
	history := map[uint64]routed{}
	for g, loc := range c.router.table {
		history[g] = routed{loc.shard, loc.ext}
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
	var listed []uint64
	for _, sh := range man.Shards {
		ck, err := serve.LoadCheckpoint(filepath.Join(dir, sh.File))
		if err != nil {
			t.Fatal(err)
		}
		var inSnap, inTable []uint64
		for _, cr := range ck.Requests {
			inSnap = append(inSnap, cr.ExternalID)
		}
		for _, p := range sh.IDs {
			inTable = append(inTable, p.Ext)
			listed = append(listed, p.Global)
		}
		slices.Sort(inSnap)
		slices.Sort(inTable)
		if !slices.Equal(inSnap, inTable) {
			t.Fatalf("shard %d: manifest ids name exts %v, snapshot holds %v", sh.Index, inTable, inSnap)
		}
		if !slices.IsSortedFunc(sh.IDs, func(a, b manifestIDPair) int { return cmp.Compare(a.Global, b.Global) }) {
			t.Fatalf("shard %d: manifest ids not in ascending global id: %+v", sh.Index, sh.IDs)
		}
	}
	slices.Sort(listed)
	if !slices.Equal(listed, live) {
		t.Fatalf("manifest lists global ids %v, live are %v (of %d routed)", listed, live, submitted)
	}

	// The parent's format: every routed request keeps its pair.
	padded := man
	padded.Shards = slices.Clone(man.Shards)
	stale := 0
	for k := range padded.Shards {
		sh := &padded.Shards[k]
		sh.IDs = slices.Clone(sh.IDs)
		for g, r := range history {
			if r.shard == sh.Index && !slices.Contains(live, g) {
				sh.IDs = append(sh.IDs, manifestIDPair{Ext: r.ext, Global: g, Spanning: []int{0, 7}})
				stale++
			}
		}
		slices.SortFunc(sh.IDs, func(a, b manifestIDPair) int { return cmp.Compare(a.Global, b.Global) })
	}

	if stale != submitted-len(live) {
		t.Fatalf("padded %d stale pairs, want one per settled request (%d)", stale, submitted-len(live))
	}

	restore := func(shards int, man *Manifest) []string {
		rdir := t.TempDir()
		for _, sh := range man.Shards {
			blob, err := os.ReadFile(filepath.Join(dir, sh.File))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(rdir, sh.File), blob, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := writeManifest(filepath.Join(rdir, "cluster.json"), man); err != nil {
			t.Fatal(err)
		}
		var state []string
		rcfg := cfg
		rcfg.Shards = shards
		rcfg.CheckpointPath = filepath.Join(rdir, "cluster.json")
		rcfg.SlotObserver = func(slot int, admitted []uint64, reward float64) {
			state = append(state, fmt.Sprintf("slot %d %v %.6f", slot, admitted, reward))
		}
		rc, err := New(rcfg)
		if err != nil {
			t.Fatalf("restore at %d shards: %v", shards, err)
		}
		rc.Start()
		defer func() { _ = rc.Stop() }()
		state = append(state, fmt.Sprintf("routed %d slot %d table %d listed %v",
			rc.RouterStats().Routed, rc.Slot(), len(rc.router.table), rc.router.spanningRequests(nil)))
		for g := uint64(0); g < uint64(submitted); g++ {
			rec, ok, err := rc.Status(g)
			if err != nil {
				t.Fatal(err)
			}
			if ok != slices.Contains(live, g) || (ok && rec.State != serve.StatePending) {
				t.Fatalf("restore at %d shards: request %d known=%v state %q", shards, g, ok, rec.State)
			}
			state = append(state, fmt.Sprintf("%d %v %+v", g, ok, rec))
		}
		for i := 0; i < 10; i++ {
			if err := rc.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		state = append(state, fmt.Sprintf("totals %+v", rc.Totals()))
		return state
	}
	for _, shards := range []int{1, 2, 8} {
		want := restore(shards, &man)
		got := restore(shards, &padded)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("restore at %d shards differs\n live-only manifest: %v\n padded manifest:    %v", shards, want, got)
		}
	}
}
