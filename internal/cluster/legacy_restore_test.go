package cluster_test

// The one-way legacy reader: a version-1 single-engine checkpoint — what
// `arserved -checkpoint` wrote before the cluster became the only serving
// path — restores as a one-shard manifest onto any shard count, and the
// next checkpoint rewrites the file as a real manifest.
//
// testdata/legacy_v1_engine.json was written by the parent commit's
// daemon (`arserved -scenario-in legacy_v1_topology.json -seed 42 -tick
// 300ms -drain-timeout 1ms -checkpoint ...`; six rounds of four
// default-spec 400-slot requests over HTTP, then three more submitted
// between ticks and a SIGTERM): slot 9, next id 27, 16 running streams,
// 7 pending requests, eight played bandit arms, non-zero totals. The
// topology is two 2-station islands, so no stream spans the 2-shard
// partition (one that did would be refused, as for any manifest).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mecoffload/internal/cluster"
	"mecoffload/internal/mec"
	"mecoffload/internal/scenario"
	"mecoffload/internal/serve"
)

const legacyFixture = "testdata/legacy_v1_engine.json"

// legacyNetwork is the topology the fixture's daemon served.
func legacyNetwork(t *testing.T) *mec.Network {
	t.Helper()
	f, err := os.Open("testdata/legacy_v1_topology.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	net, _, err := scenario.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestLegacyCheckpointRestore(t *testing.T) {
	raw, err := os.ReadFile(legacyFixture)
	if err != nil {
		t.Fatal(err)
	}
	var legacy serve.Checkpoint
	if err := json.Unmarshal(raw, &legacy); err != nil {
		t.Fatal(err)
	}
	if len(legacy.Requests) == len(legacy.Running) || len(legacy.Running) == 0 || legacy.Totals.Reward == 0 || legacy.Bandit == nil {
		t.Fatalf("fixture is vacuous: %d requests, %d running, totals %+v", len(legacy.Requests), len(legacy.Running), legacy.Totals)
	}
	wantBandit, err := json.Marshal(legacy.Bandit)
	if err != nil {
		t.Fatal(err)
	}

	// checkLive asserts the restored clock, every live request's state
	// under its old id, and the cluster-wide totals.
	checkLive := func(t *testing.T, c *cluster.Cluster) {
		t.Helper()
		if got := c.Slot(); got != legacy.Slot {
			t.Fatalf("restored slot %d, want %d", got, legacy.Slot)
		}
		for _, cr := range legacy.Requests {
			rec, ok, err := c.Status(cr.ExternalID)
			if err != nil || !ok {
				t.Fatalf("request %d: ok=%v err=%v", cr.ExternalID, ok, err)
			}
			want := serve.StatePending
			if cr.Running {
				want = serve.StateServing
			}
			if rec.ID != cr.ExternalID || rec.State != want || rec.SubmittedSlot != cr.ArrivalSlot {
				t.Fatalf("request %d restored as %+v, want state %s submitted at slot %d", cr.ExternalID, rec, want, cr.ArrivalSlot)
			}
		}
		if got := c.Totals(); got != legacy.Totals {
			t.Fatalf("restored totals %+v, want %+v", got, legacy.Totals)
		}
	}

	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "state.json")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			cfg := cluster.Config{Net: legacyNetwork(t), Shards: shards, Seed: 42, CheckpointPath: path}
			c, err := cluster.New(cfg)
			if err != nil {
				t.Fatalf("restoring the legacy checkpoint: %v", err)
			}
			c.Start()
			checkLive(t, c)
			// Stop without a tick: the rewritten file holds the restored
			// state itself.
			if err := c.Stop(); err != nil {
				t.Fatal(err)
			}

			// The file is now a manifest, generation 1, in the current
			// shard layout, and every shard carries the legacy learner.
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var man cluster.Manifest
			if err := json.Unmarshal(data, &man); err != nil {
				t.Fatal(err)
			}
			if man.Version != cluster.ManifestVersion || man.Generation != 1 || man.Slot != legacy.Slot ||
				man.NextGlobalID != legacy.NextExternalID || len(man.Shards) != shards {
				t.Fatalf("rewritten manifest %+v", man)
			}
			live := 0
			for _, sh := range man.Shards {
				ck, err := serve.LoadCheckpoint(filepath.Join(filepath.Dir(path), sh.File))
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(ck.Bandit)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, wantBandit) {
					t.Fatalf("shard %d bandit diverges from the legacy checkpoint:\n  legacy: %s\n  shard:  %s", sh.Index, wantBandit, got)
				}
				live += len(ck.Requests)
			}
			if live != len(legacy.Requests) {
				t.Fatalf("manifest holds %d live requests, want %d", live, len(legacy.Requests))
			}

			// And the manifest restores again, keeps the id allocator, and
			// schedules: every pending request settles.
			c2, err := cluster.New(cfg)
			if err != nil {
				t.Fatalf("restoring the rewritten manifest: %v", err)
			}
			c2.Start()
			defer func() { _ = c2.Stop() }()
			checkLive(t, c2)
			id, _, err := c2.Submit(serve.RequestSpec{AccessStation: 0})
			if err != nil {
				t.Fatal(err)
			}
			if id != legacy.NextExternalID {
				t.Fatalf("next id %d after restore, want %d", id, legacy.NextExternalID)
			}
			for i := 0; i < 12; i++ {
				if err := c2.Tick(); err != nil {
					t.Fatal(err)
				}
			}
			for _, cr := range legacy.Requests {
				rec, ok, err := c2.Status(cr.ExternalID)
				if err != nil || !ok {
					t.Fatalf("request %d after ticks: ok=%v err=%v", cr.ExternalID, ok, err)
				}
				if !cr.Running && rec.State == serve.StatePending {
					t.Fatalf("restored pending request %d never decided", cr.ExternalID)
				}
			}
		})
	}
}

// TestRemovedSchedulerNameRestores: an older daemon run with the since
// removed `-scheduler local-ratio` recorded that name in its checkpoint —
// the version-1 file, and every shard file of a manifest. The field is a
// record, not a selector: both restore under the default scheduler with
// the learner they hold intact.
func TestRemovedSchedulerNameRestores(t *testing.T) {
	raw, err := os.ReadFile(legacyFixture)
	if err != nil {
		t.Fatal(err)
	}
	renamed := func(data []byte) []byte {
		out := bytes.Replace(data, []byte(`"scheduler": "dynamicrr"`), []byte(`"scheduler": "local-ratio"`), 1)
		if bytes.Equal(out, data) {
			t.Fatal("no scheduler field to rename")
		}
		return out
	}
	var legacy serve.Checkpoint
	if err := json.Unmarshal(renamed(raw), &legacy); err != nil {
		t.Fatal(err)
	}
	wantBandit, err := json.Marshal(legacy.Bandit)
	if err != nil || legacy.Scheduler != "local-ratio" || legacy.Bandit == nil {
		t.Fatalf("fixture: scheduler %q, bandit %v, err %v", legacy.Scheduler, legacy.Bandit, err)
	}

	path := filepath.Join(t.TempDir(), "state.json")
	if err := os.WriteFile(path, renamed(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{Net: legacyNetwork(t), Shards: 2, Seed: 42, CheckpointPath: path}
	// Round 0 reads the version-1 file, round 1 the manifest round 0 left,
	// its shard files renamed back to what the older daemon wrote.
	for round := 0; round < 2; round++ {
		c, err := cluster.New(cfg)
		if err != nil {
			t.Fatalf("round %d: restoring under the default scheduler: %v", round, err)
		}
		c.Start()
		if got := c.Totals(); got != legacy.Totals {
			t.Fatalf("round %d: restored totals %+v, want %+v", round, got, legacy.Totals)
		}
		if err := c.Stop(); err != nil {
			t.Fatal(err)
		}
		man, snaps := shardSnapshots(t, path)
		for k, ck := range snaps {
			got, err := json.Marshal(ck.Bandit)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, wantBandit) || ck.Scheduler != "dynamicrr" {
				t.Fatalf("round %d shard %d: scheduler %q, bandit %s, want dynamicrr and %s", round, k, ck.Scheduler, got, wantBandit)
			}
			file := filepath.Join(filepath.Dir(path), man.Shards[k].File)
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, renamed(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestLegacyCheckpointRejected: a file at -checkpoint that cannot be
// restored fails New loudly and is left as it was — the daemon never
// starts empty over it.
func TestLegacyCheckpointRejected(t *testing.T) {
	raw, err := os.ReadFile(legacyFixture)
	if err != nil {
		t.Fatal(err)
	}
	full, oneIsland := legacyNetwork(t), islandNetwork(t, 1, 2)
	cases := []struct {
		name    string
		data    []byte
		net     *mec.Network
		wantErr string
	}{
		{"truncated", raw[:len(raw)/2], full, "decoding"},
		{"empty", nil, full, "decoding"},
		{"wrong version", bytes.Replace(raw, []byte(`"version": 1`), []byte(`"version": 2`), 1), full, "version 2"},
		{"neither format", []byte(`{"version": 1, "slot": 3}`), full, "neither a cluster manifest nor a single-engine checkpoint"},
		{"station count", raw, oneIsland, "outside its partition"},
		{"shard file outside", []byte(`{"version": 2, "shards": [{"index": 0, "stations": [0], "file": "../state.json"}]}`), full, "outside its directory"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "wrong version" && bytes.Equal(tc.data, raw) {
				t.Fatal("fixture has no version field to corrupt")
			}
			path := filepath.Join(t.TempDir(), "state.json")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 2} {
				_, err := cluster.New(cluster.Config{Net: tc.net, Shards: shards, Seed: 42, CheckpointPath: path})
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("shards=%d: New = %v, want an error containing %q", shards, err, tc.wantErr)
				}
			}
			after, err := os.ReadFile(path)
			if err != nil || !bytes.Equal(after, tc.data) {
				t.Fatalf("refused checkpoint was modified (err=%v)", err)
			}
		})
	}
}

// TestClusterStopPersistsIngestResidue is the daemon-level shutdown
// quiesce contract: a batch the intake ACCEPTED but the planner has not
// seen — all of it still at the door — lands in the manifest Stop
// writes, and a restored cluster answers for and schedules every id.
func TestClusterStopPersistsIngestResidue(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			net := islandNetwork(t, 2, 2)
			cfg := parityConfig(net, shards)
			cfg.CheckpointPath = filepath.Join(t.TempDir(), "cluster.json")
			c, err := cluster.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			specs := make([]serve.RequestSpec, 48)
			for i := range specs {
				specs[i] = serve.RequestSpec{
					AccessStation: i % 4,
					DurationSlots: 2,
					Outcomes:      []serve.OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: float64(200 + i)}},
				}
			}
			res, err := c.SubmitBatch(specs)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.IDs) != len(specs) {
				t.Fatalf("accepted %d of %d", len(res.IDs), len(specs))
			}
			// Stop immediately: no tick ever ran.
			if err := c.Stop(); err != nil {
				t.Fatal(err)
			}

			r, err := cluster.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r.Start()
			defer func() { _ = r.Stop() }()
			for _, id := range res.IDs {
				rec, ok, err := r.Status(id)
				if err != nil || !ok {
					t.Fatalf("restored status %d: ok=%v err=%v", id, ok, err)
				}
				if rec.State != serve.StatePending {
					t.Fatalf("restored request %d in state %q, want pending", id, rec.State)
				}
			}
			for i := 0; i < 16; i++ {
				if err := r.Tick(); err != nil {
					t.Fatal(err)
				}
			}
			for _, id := range res.IDs {
				rec, ok, err := r.Status(id)
				if err != nil || !ok {
					t.Fatalf("post-tick status %d: ok=%v err=%v", id, ok, err)
				}
				if rec.State == serve.StatePending {
					t.Fatalf("restored request %d never decided", id)
				}
			}
		})
	}
}

// shardSnapshots loads every shard snapshot the manifest at path names,
// in manifest order.
func shardSnapshots(t *testing.T, path string) (cluster.Manifest, []*serve.Checkpoint) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man cluster.Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	snaps := make([]*serve.Checkpoint, len(man.Shards))
	for i, sh := range man.Shards {
		ck, err := serve.LoadCheckpoint(filepath.Join(filepath.Dir(path), sh.File))
		if err != nil {
			t.Fatal(err)
		}
		snaps[i] = ck
	}
	return man, snaps
}

// TestCleanDrainKeepsLearnedState is the daemon's normal shutdown —
// Drain, tick until every shard has exited, Stop — and what the final
// manifest must still hold although no engine loop is left to ask: every
// shard's learner, the slot clock and the lifetime counters. Nothing is
// pending when the drain starts, so the drain pulls no arm and each
// shard's learner must come out exactly as the last pre-drain checkpoint
// recorded it; island 1's streams run longer, so at 2 shards shard 0 exits
// first and the restore must continue from shard 1's learner.
func TestCleanDrainKeepsLearnedState(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			net := islandNetwork(t, 2, 2)
			cfg := parityConfig(net, shards)
			cfg.CheckpointPath = filepath.Join(t.TempDir(), "cluster.json")
			cfg.CheckpointEvery = 1 // a synchronous manifest after every slot
			c, err := cluster.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			var ids []uint64
			for round := 0; round < 5; round++ {
				for isl := 0; isl < 2; isl++ {
					dur := 3
					if isl == 1 {
						dur = 12 // island 1 outlives island 0
					}
					id, _, err := c.Submit(serve.RequestSpec{
						AccessStation: 2*isl + round%2,
						DurationSlots: dur,
						Outcomes:      []serve.OutcomeSpec{{RateMBs: 10, Prob: 1, Reward: float64(100 + 10*round + isl)}},
					})
					if err != nil {
						t.Fatal(err)
					}
					ids = append(ids, id)
				}
				if err := c.Tick(); err != nil {
					t.Fatal(err)
				}
			}
			serving := 0
			for _, id := range ids {
				rec, ok, err := c.Status(id)
				if err != nil || !ok {
					t.Fatalf("status %d: ok=%v err=%v", id, ok, err)
				}
				switch rec.State {
				case serve.StatePending:
					t.Fatalf("request %d still pending before the drain: the drain would pull arms", id)
				case serve.StateServing:
					serving++
				}
			}
			if serving == 0 {
				t.Fatal("nothing in service before the drain: the drain would be a no-op")
			}
			_, before := shardSnapshots(t, cfg.CheckpointPath)
			wantBandit := make([][]byte, shards)
			for k, ck := range before {
				if ck.Bandit == nil || ck.Bandit.Policy == nil || ck.Bandit.Policy.T == 0 {
					t.Fatalf("shard %d learned nothing before the drain: %+v", k, ck.Bandit)
				}
				if wantBandit[k], err = json.Marshal(ck.Bandit); err != nil {
					t.Fatal(err)
				}
			}
			preDrain := c.Totals()

			if err := c.Drain(); err != nil {
				t.Fatal(err)
			}
			for i := 0; c.Alive(); i++ {
				if err := c.Tick(); err != nil && !errors.Is(err, serve.ErrStopped) {
					t.Fatal(err)
				}
				if i > 100 {
					t.Fatal("drain did not settle in 100 slots")
				}
			}
			<-c.Done()
			wantSlot, wantTotals := c.Slot(), c.Totals()
			if wantTotals.Submitted != uint64(len(ids)) || wantTotals.Admitted != preDrain.Admitted ||
				wantTotals.Departed <= preDrain.Departed || wantTotals.Reward == 0 {
				t.Fatalf("totals after the drain %+v (before it %+v)", wantTotals, preDrain)
			}
			if err := c.Stop(); err != nil {
				t.Fatal(err)
			}

			man, after := shardSnapshots(t, cfg.CheckpointPath)
			if man.Slot != wantSlot || man.NextGlobalID != uint64(len(ids)) {
				t.Fatalf("final manifest slot %d next id %d, want %d and %d", man.Slot, man.NextGlobalID, wantSlot, len(ids))
			}
			var sum serve.Totals
			last := 0
			for k, ck := range after {
				got, err := json.Marshal(ck.Bandit)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, wantBandit[k]) {
					t.Fatalf("shard %d learner in the final manifest:\n  got:  %s\n  want: %s", k, got, wantBandit[k])
				}
				if len(ck.Requests) != 0 || len(ck.Running) != 0 {
					t.Fatalf("drained shard %d still lists %d requests, %d streams", k, len(ck.Requests), len(ck.Running))
				}
				sum.Submitted += ck.Totals.Submitted
				sum.Admitted += ck.Totals.Admitted
				sum.Departed += ck.Totals.Departed
				sum.Ticks += ck.Totals.Ticks
				sum.Reward += ck.Totals.Reward
				if ck.Slot > after[last].Slot {
					last = k
				}
			}
			if sum.Submitted != wantTotals.Submitted || sum.Admitted != wantTotals.Admitted ||
				sum.Departed != wantTotals.Departed || sum.Ticks != wantTotals.Ticks || sum.Reward != wantTotals.Reward {
				t.Fatalf("final manifest totals sum to %+v, want %+v", sum, wantTotals)
			}
			if shards == 2 && (last != 1 || after[0].Slot >= after[1].Slot) {
				t.Fatalf("shard 0 was to exit first: exit slots %d and %d", after[0].Slot, after[1].Slot)
			}

			// The restart continues from it: clock, id allocator, counters,
			// and the learner of the shard that ran longest.
			r, err := cluster.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r.Start()
			if got := r.Slot(); got != wantSlot {
				t.Fatalf("restored slot %d, want %d", got, wantSlot)
			}
			if got := r.Totals(); got != wantTotals {
				t.Fatalf("restored totals %+v, want %+v", got, wantTotals)
			}
			id, _, err := r.Submit(serve.RequestSpec{AccessStation: 0})
			if err != nil || id != uint64(len(ids)) {
				t.Fatalf("first id after the restart %d (err %v), want %d", id, err, len(ids))
			}
			if err := r.Stop(); err != nil {
				t.Fatal(err)
			}
			_, restored := shardSnapshots(t, cfg.CheckpointPath)
			for k, ck := range restored {
				got, err := json.Marshal(ck.Bandit)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, wantBandit[last]) {
					t.Fatalf("restored shard %d learner:\n  got:  %s\n  want: %s", k, got, wantBandit[last])
				}
			}
		})
	}
}
