package serve

// Shutdown quiesce contract: a request the batched-ingest path has
// ACCEPTED (returned an id for) must never be dropped by a shutdown —
// whatever is still sitting in the door's overflow stage or the ring
// lands in the final checkpoint as pending, and a restore answers status
// for it. At the engine the shutdown is Drain (quiesce) then Snapshot;
// the daemon-level form — cluster.Stop writes the manifest — is
// TestClusterStopPersistsIngestResidue in internal/cluster.

import (
	"math/rand"
	"path/filepath"
	"testing"
)

// TestStopPersistsIngestResidue accepts a batch far larger than the
// ring, so most of it is still staged at the door when the shutdown
// fires, then proves the final checkpoint carries every accepted id and
// a restored engine can still schedule all of them.
func TestStopPersistsIngestResidue(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "arserved.ckpt")
	net := testNetwork(t, 4)
	cfg := Config{
		Net:           net,
		Rng:           rand.New(rand.NewSource(3)),
		RingCapacity:  4, // force the overflow stage into play
		StageCapacity: 256,
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Start()

	specs := make([]RequestSpec, 48)
	for i := range specs {
		specs[i] = RequestSpec{
			AccessStation: i % net.NumStations(),
			DurationSlots: 2,
			Outcomes:      []OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: float64(200 + i)}},
		}
	}
	res, err := e.SubmitBatch(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != len(specs) {
		t.Fatalf("accepted %d of %d", len(res.IDs), len(specs))
	}
	// Shut down immediately: no tick ever ran, so nothing was pulled into
	// the planner by scheduling — the ring and stage still hold the batch.
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	snap := snapshotViaDisk(t, e, ck)
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	persisted := make(map[uint64]bool, len(snap.Requests))
	for _, cr := range snap.Requests {
		persisted[cr.ExternalID] = true
	}
	for _, id := range res.IDs {
		if !persisted[id] {
			t.Fatalf("accepted request %d missing from final checkpoint (%d persisted)", id, len(snap.Requests))
		}
	}

	// A restored engine must answer status for every accepted id and
	// drain them all to a decision.
	r, err := New(Config{Net: net, Rng: rand.New(rand.NewSource(4)), Restore: snap})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	t.Cleanup(func() { _ = r.Stop() })
	for _, id := range res.IDs {
		rec, ok, err := r.Status(id)
		if err != nil || !ok {
			t.Fatalf("restored status %d: ok=%v err=%v", id, ok, err)
		}
		if rec.State != StatePending {
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
		if rec.State == StatePending {
			t.Fatalf("restored request %d never decided", id)
		}
	}
}
