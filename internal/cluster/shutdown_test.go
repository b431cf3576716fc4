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
// Drain, tick until Done, Stop — and what the final manifest must hold:
// every shard's learner as fed through the drain's last slot, the slot
// clock and the lifetime counters.
//
// In the first case nothing is pending when the drain starts, so the
// drain pulls no arm and each shard's learner must come out exactly as
// the last pre-drain checkpoint recorded it. Island 1's streams run
// longer, so at 2 shards shard 0 is idle slots before shard 1; it keeps
// ticking, so every shard snapshot carries the cluster's slot, and the
// restore, over the same partition, continues from each shard's own
// learner.
//
// In the second case the slot that completes the drain pulls an arm: it
// admits a wave that realization evicts whole, and leaves nothing
// running. The learners in the final manifest, and the one a restart
// continues from, must equal those of the same run without the drain,
// which were fed every slot's reward.
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
				if err := c.Tick(); err != nil {
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
				if ck.Slot != wantSlot {
					t.Fatalf("shard %d snapshot at slot %d, want the cluster's %d: a shard idle early still ticks", k, ck.Slot, wantSlot)
				}
				sum.Submitted += ck.Totals.Submitted
				sum.Admitted += ck.Totals.Admitted
				sum.Departed += ck.Totals.Departed
				sum.Ticks += ck.Totals.Ticks
				sum.Reward += ck.Totals.Reward
			}
			if sum.Submitted != wantTotals.Submitted || sum.Admitted != wantTotals.Admitted ||
				sum.Departed != wantTotals.Departed || sum.Ticks != wantTotals.Ticks || sum.Reward != wantTotals.Reward {
				t.Fatalf("final manifest totals sum to %+v, want %+v", sum, wantTotals)
			}

			// The restart continues from it: clock, id allocator, counters,
			// and each shard's learner.
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
				if !bytes.Equal(got, wantBandit[k]) {
					t.Fatalf("restored shard %d learner:\n  got:  %s\n  want: %s", k, got, wantBandit[k])
				}
			}
		})
		t.Run(fmt.Sprintf("exit_slot_pulls/shards=%d", shards), func(t *testing.T) { drainFeedsExitSlot(t, shards) })
	}
}

// drainFeedsExitSlot runs the same script with and without a drain: slots
// of served requests until every stream has departed, then a wave at
// every station that the next slot admits and evicts, so that slot pulls
// every shard's arm and leaves nothing pending or running — with the
// drain, it is the slot that completes it.
func drainFeedsExitSlot(t *testing.T, shards int) {
	net := islandNetwork(t, 2, 2)
	run := func(drain bool) (path string, slot int) {
		cfg := parityConfig(net, shards)
		cfg.CheckpointPath = filepath.Join(t.TempDir(), "cluster.json")
		c, err := cluster.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		defer func() { _ = c.Stop() }()
		for round := 0; round < 4; round++ {
			for st := 0; st < 4; st++ {
				if _, _, err := c.Submit(serve.RequestSpec{AccessStation: st, DurationSlots: 2,
					Outcomes: []serve.OutcomeSpec{{RateMBs: 10, Prob: 1, Reward: float64(100 + 10*round + st)}}}); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		settleStreams(t, c)
		wave := evictedWave([]int{0, 1, 2, 3}, 2)
		if _, err := c.SubmitBatch(wave); err != nil {
			t.Fatal(err)
		}
		before := c.Totals()
		if drain {
			if err := c.Drain(); err != nil {
				t.Fatal(err)
			}
			if !c.Alive() {
				t.Fatal("the drain completed with the wave pending")
			}
		}
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		after := c.Totals()
		if n := uint64(len(wave)); after.Admitted-before.Admitted != n || after.Evicted-before.Evicted != n {
			t.Fatalf("the wave's slot admitted %d and evicted %d of %d requests, want all of them",
				after.Admitted-before.Admitted, after.Evicted-before.Evicted, n)
		}
		if drain && c.Alive() {
			t.Fatal("the drain did not complete in the slot that evicted the wave")
		}
		slot = c.Slot()
		if err := c.Stop(); err != nil {
			t.Fatal(err)
		}
		return cfg.CheckpointPath, slot
	}
	undrained, _ := run(false)
	want := learnersIn(t, undrained)
	drained, slot := run(true)
	for k, got := range learnersIn(t, drained) {
		if !bytes.Equal(got, want[k]) {
			t.Fatalf("shard %d learner after the drain:\n  got:  %s\n  want: %s (fed every slot's reward)", k, got, want[k])
		}
	}

	cfg := parityConfig(net, shards)
	cfg.CheckpointPath = drained
	r, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Slot(); got != slot {
		t.Fatalf("restored slot %d, want %d", got, slot)
	}
	if err := r.Stop(); err != nil {
		t.Fatal(err)
	}
	for k, got := range learnersIn(t, drained) {
		if !bytes.Equal(got, want[0]) {
			t.Fatalf("restored shard %d learner:\n  got:  %s\n  want: %s (fed every slot's reward)", k, got, want[0])
		}
	}
}

// settleStreams ticks until every stream the cluster served has departed
// and nothing is pending.
func settleStreams(t *testing.T, c *cluster.Cluster) {
	t.Helper()
	for i := 0; ; i++ {
		tot := c.Totals()
		if tot.Departed == tot.Served && tot.Admitted+tot.Expired+tot.Rejected == tot.Submitted {
			return
		}
		if i == 50 {
			t.Fatalf("streams still running after 50 slots: %+v", tot)
		}
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
}

// evictedWave returns n requests at each of stations that R_t admits and
// realization evicts: each needs 10 MB/s with probability 10⁻⁶ and
// otherwise a 40 000 MB/s stream no station holds, so a station that
// admits any of them is all but certainly overloaded and drops every
// admission it made. The slot that schedules them pulls an arm and leaves
// nothing running.
func evictedWave(stations []int, n int) []serve.RequestSpec {
	var wave []serve.RequestSpec
	for _, st := range stations {
		for i := 0; i < n; i++ {
			wave = append(wave, serve.RequestSpec{AccessStation: st, DurationSlots: 2,
				Outcomes: []serve.OutcomeSpec{{RateMBs: 10, Prob: 1e-6, Reward: 500}, {RateMBs: 40000, Prob: 1 - 1e-6, Reward: 500}}})
		}
	}
	return wave
}

// learnersIn returns every shard's learner in the manifest at path, as
// JSON, in manifest order.
func learnersIn(t *testing.T, path string) [][]byte {
	t.Helper()
	_, snaps := shardSnapshots(t, path)
	out := make([][]byte, len(snaps))
	for k, ck := range snaps {
		if ck.Bandit == nil {
			t.Fatalf("shard %d of %s has no learner", k, path)
		}
		var err error
		if out[k], err = json.Marshal(ck.Bandit); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestClockAfterStop: once Stop returns, the clock is dead. Tick answers
// ErrStopped and advances nothing, Flush answers nil, and neither writes a
// manifest over the one Stop wrote, though every slot would checkpoint.
func TestClockAfterStop(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := parityConfig(islandNetwork(t, 2, 2), shards)
			cfg.CheckpointPath = filepath.Join(t.TempDir(), "cluster.json")
			cfg.CheckpointEvery = 1
			c, err := cluster.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			for st := 0; st < 4; st++ {
				if _, _, err := c.Submit(serve.RequestSpec{AccessStation: st, DurationSlots: 4}); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Tick(); err != nil {
				t.Fatal(err)
			}
			if err := c.Stop(); err != nil {
				t.Fatal(err)
			}
			final, err := os.ReadFile(cfg.CheckpointPath)
			if err != nil {
				t.Fatal(err)
			}
			slot := c.Slot()
			for i := 0; i < 3; i++ {
				if err := c.Tick(); !errors.Is(err, serve.ErrStopped) {
					t.Fatalf("Tick after Stop = %v, want ErrStopped", err)
				}
				if err := c.Flush(); err != nil {
					t.Fatalf("Flush after Stop = %v, want nil", err)
				}
			}
			if got := c.Slot(); got != slot {
				t.Fatalf("slot %d after ticks on a stopped cluster, want %d", got, slot)
			}
			got, err := os.ReadFile(cfg.CheckpointPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, final) {
				t.Fatalf("the manifest changed after Stop:\n%s\n---\n%s", got, final)
			}
		})
	}
}
