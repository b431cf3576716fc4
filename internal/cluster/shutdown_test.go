package cluster_test

// Shutdown keeps what the cluster accepted and learned: the manifest Stop
// writes holds the door's residue and every shard's learner, and a restart
// continues from it.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mecoffload/internal/cluster"
	"mecoffload/internal/serve"
)

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

// shardSnapshots returns the manifest at path and every shard snapshot it
// holds, in manifest order.
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
		snaps[i] = sh.Checkpoint
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
			cfg.CheckpointEvery = 1 // a manifest after every slot
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
			c.WaitCheckpoints()
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
