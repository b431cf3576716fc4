package serve

import (
	"encoding/json"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
)

// TestCheckpointResumeDecisions: an engine killed after a checkpoint and
// restored from it (Snapshot, through the on-disk encoding, back in via
// Config.Restore) decides exactly what the uninterrupted engine decides
// from there on. Both see the same submissions and continue from the same
// realization stream; after every slot the threshold learner's full
// state, each request's state, and the whole record of every request
// submitted since the restore must agree — the serve-layer counterpart
// of the bandit snapshot property test. (A request in flight at the kill
// point is restored as a stream, not as the record of its decision, so
// only its state is compared.)
func TestCheckpointResumeDecisions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "arserved.ckpt")
	rng := rand.New(rand.NewSource(42))
	cfg := Config{Net: testNetwork(t, 4), Rng: rng}

	e1 := testEngine(t, cfg)
	for i := 0; i < 15; i++ {
		submitN(t, e1, 4)
		if err := e1.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Restore = snapshotViaDisk(t, e1, path)
	var live, ids []uint64
	for _, r := range cfg.Restore.Requests {
		live = append(live, r.ExternalID)
	}
	if len(live) == 0 {
		t.Fatal("test wants live requests at the kill point")
	}
	killed := learnerOf(t, e1)

	rng.Seed(43)
	cfg.Rng = rand.New(rand.NewSource(43))
	e2 := testEngine(t, cfg)
	for i := 0; i < 10; i++ {
		want := submitN(t, e1, 4)
		if got := submitN(t, e2, 4); !slices.Equal(got, want) {
			t.Fatalf("slot %d: restored engine allocated ids %v, want %v", i, got, want)
		}
		ids = append(ids, want...)
		if err := e1.Tick(); err != nil {
			t.Fatal(err)
		}
		if err := e2.Tick(); err != nil {
			t.Fatal(err)
		}
		for _, id := range slices.Concat(live, ids) {
			r1, ok1, err1 := e1.Status(id)
			r2, ok2, err2 := e2.Status(id)
			if !slices.Contains(ids, id) {
				r1, r2 = RequestRecord{State: r1.State}, RequestRecord{State: r2.State}
			}
			if err1 != nil || err2 != nil || !ok1 || !ok2 || r1 != r2 {
				t.Fatalf("slot %d request %d: restored %+v (ok %v, %v), uninterrupted %+v (ok %v, %v)",
					i, id, r2, ok2, err2, r1, ok1, err1)
			}
		}
		b1, b2 := learnerOf(t, e1), learnerOf(t, e2)
		j1, _ := json.Marshal(b1)
		j2, _ := json.Marshal(b2)
		if string(j1) != string(j2) {
			t.Fatalf("slot %d: learner diverges after restore:\n  restored:      %s\n  uninterrupted: %s", i, j2, j1)
		}
		if i == 9 && b2.Policy.T <= killed.Policy.T {
			t.Fatalf("learner rounds did not advance after restore: %d -> %d", killed.Policy.T, b2.Policy.T)
		}
	}
}
