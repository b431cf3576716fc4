package cluster_test

// A restart at any shard count keeps each live request's status record,
// and a restart at the same partition keeps each shard's own learner.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"mecoffload/internal/cluster"
	"mecoffload/internal/serve"
)

// TestRestoreKeepsRequestRecords: every live request's Status record —
// a serving request's decision slot, station, reward and latency, and a
// door-held request's submission slot — is the same before the manifest
// Stop writes and after a restart from it, at 1 and 2 shards. MaxPending
// 1 keeps most of each slot's arrivals at the door past their slot.
func TestRestoreKeepsRequestRecords(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			net := islandNetwork(t, 2, 2)
			cfg := parityConfig(net, shards)
			cfg.CheckpointPath = filepath.Join(t.TempDir(), "cluster.json")
			cfg.MaxPending = 1
			c, err := cluster.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			var ids []uint64
			for slot := 0; slot < 4; slot++ {
				for st := 0; st < 4; st++ {
					id, _, err := c.Submit(serve.RequestSpec{AccessStation: st, DurationSlots: 30,
						Outcomes: []serve.OutcomeSpec{{RateMBs: 10, Prob: 1, Reward: float64(100 + 10*slot + st)}}})
					if err != nil {
						t.Fatal(err)
					}
					ids = append(ids, id)
				}
				if err := c.Tick(); err != nil {
					t.Fatal(err)
				}
			}
			// Stop flushes the door, so a request it still held arrives in
			// the manifest's slot.
			before := liveRecords(t, c, ids)
			if err := c.Stop(); err != nil {
				t.Fatal(err)
			}
			serving, held := 0, 0
			for _, rec := range before {
				switch {
				case rec.State == serve.StateServing:
					serving++
				case rec.SubmittedSlot < c.Slot():
					held++
				}
			}
			if serving == 0 || held == 0 {
				t.Fatalf("vacuous run: %d serving and %d door-held of %d live requests", serving, held, len(before))
			}

			r, err := cluster.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r.Start()
			defer func() { _ = r.Stop() }()
			after := liveRecords(t, r, ids)
			if len(after) != len(before) {
				t.Fatalf("%d live requests after the restart, %d before", len(after), len(before))
			}
			for id, want := range before {
				if got := after[id]; got != want {
					t.Errorf("request %d record after the restart:\n  got:  %+v\n  want: %+v", id, got, want)
				}
			}
		})
	}
}

// liveRecords returns the Status record of every pending or serving
// request among ids.
func liveRecords(t *testing.T, c *cluster.Cluster, ids []uint64) map[uint64]serve.RequestRecord {
	t.Helper()
	out := make(map[uint64]serve.RequestRecord)
	for _, id := range ids {
		rec, ok, err := c.Status(id)
		if err != nil || !ok {
			t.Fatalf("status %d: ok=%v err=%v", id, ok, err)
		}
		if rec.State == serve.StatePending || rec.State == serve.StateServing {
			out[id] = rec
		}
	}
	return out
}

// TestRestoreKeepsEachShardLearner: a shard plays an arm only in a slot
// with requests pending, so shard learners part ways — here shard 0 plays
// six slots and shard 1 none. A restart over the same partition gives each
// shard its own learner back, so the manifest a Stop right after it
// writes holds every shard's learner as the first manifest did.
func TestRestoreKeepsEachShardLearner(t *testing.T) {
	net := islandNetwork(t, 2, 2)
	cfg := parityConfig(net, 2)
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "cluster.json")
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	for slot := 0; slot < 6; slot++ {
		if _, _, err := c.Submit(serve.RequestSpec{AccessStation: 0, DurationSlots: 2,
			Outcomes: []serve.OutcomeSpec{{RateMBs: 10, Prob: 1, Reward: 100}}}); err != nil {
			t.Fatal(err)
		}
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	_, first := shardSnapshots(t, cfg.CheckpointPath)
	want := make([][]byte, len(first))
	for k, ck := range first {
		if want[k], err = json.Marshal(ck.Bandit); err != nil {
			t.Fatal(err)
		}
	}
	if bytes.Equal(want[0], want[1]) {
		t.Fatalf("vacuous run: both shards hold the learner %s", want[0])
	}

	r, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	if err := r.Stop(); err != nil {
		t.Fatal(err)
	}
	_, restored := shardSnapshots(t, cfg.CheckpointPath)
	for k, ck := range restored {
		got, err := json.Marshal(ck.Bandit)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[k]) {
			t.Errorf("shard %d learner after the restart:\n  got:  %s\n  want: %s", k, got, want[k])
		}
	}
}
