package serve

import (
	"encoding/json"
	"math/rand"
	"path/filepath"
	"testing"

	"mecoffload/internal/sim"
)

// TestCheckpointResumeDriftPolicies runs the checkpoint/restore cycle
// with every drift-aware arm policy: an engine configured via
// PolicySpec, killed after a checkpoint (Snapshot, through the on-disk
// encoding, back in via Config.Restore), must restore the policy's full
// learning state (windows, discounted counts, detector statistics,
// restart counters) and keep learning from it — the serve-layer
// counterpart of the bandit snapshot property tests.
func TestCheckpointResumeDriftPolicies(t *testing.T) {
	specs := []string{"sw-ucb:12", "d-ucb:0.98", "exp3s", "restart:se", "restart:ucb1"}
	for _, spec := range specs {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "arserved.ckpt")
			net := testNetwork(t, 4)
			cfg := Config{
				Net:       net,
				DynamicRR: sim.DynamicRROptions{PolicySpec: spec, PolicySeed: 7},
			}

			e1 := testEngine(t, cfg)
			for i := 0; i < 15; i++ {
				submitN(t, e1, 4)
				if err := e1.Tick(); err != nil {
					t.Fatal(err)
				}
			}
			cfg.Restore = snapshotViaDisk(t, e1, path)
			want, err := e1.BanditSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			if want.Policy.Kind == "" {
				t.Fatal("snapshot has no policy kind")
			}

			cfg.Rng = rand.New(rand.NewSource(43))
			e2, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			e2.Start()
			t.Cleanup(func() { _ = e2.Stop() })

			got, err := e2.BanditSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, _ := json.Marshal(want)
			gotJSON, _ := json.Marshal(got)
			if string(wantJSON) != string(gotJSON) {
				t.Fatalf("%s: bandit state diverges after restart:\n  before: %s\n  after:  %s",
					spec, wantJSON, gotJSON)
			}

			// Learning continues from the restored state.
			for i := 0; i < 5; i++ {
				submitN(t, e2, 4)
				if err := e2.Tick(); err != nil {
					t.Fatal(err)
				}
			}
			after, err := e2.BanditSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			// Round counters live in different fields per kind (T for the
			// UCB family, Draws for Exp3, Inner.T for Restart — and a
			// detector-triggered restart may even reset the inner counter),
			// so "still learning" is pinned by the full state moving.
			afterJSON, _ := json.Marshal(after)
			if string(afterJSON) == string(gotJSON) {
				t.Fatalf("%s: bandit state frozen after restore: %s", spec, gotJSON)
			}
		})
	}
}
