package cluster

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mecoffload/internal/core"
	"mecoffload/internal/mec"
	"mecoffload/internal/oracle"
	"mecoffload/internal/serve"
	"mecoffload/internal/sim"
)

// FuzzCheckpointRestore writes fuzzed bytes as a manifest and its two
// generation-1 shard files and restores a 2-shard cluster over
// chainTestNetwork(8) from them. Restore must never panic. A refused
// checkpoint is left byte for byte as it was; an accepted one runs a slot
// under the oracle's per-slot invariant checker and stops cleanly, writing
// its own manifest. The seeds are the one format read: a generation a live
// cluster wrote over the same network, and one written over
// chainTestNetwork(4), which the station guard refuses.
func FuzzCheckpointRestore(f *testing.F) {
	net := chainTestNetwork(f, 8)
	for _, n := range []*mec.Network{net, chainTestNetwork(f, 4)} {
		man, s0, s1 := liveGeneration(f, Config{Net: n}, n.NumStations())
		f.Add(man, s0, s1)
	}

	f.Fuzz(func(t *testing.T, manifest, shard0, shard1 []byte) {
		files := generationFiles(manifest, shard0, shard1)
		path := writeFiles(t, files)
		dir := filepath.Dir(path)
		// An engine logs a failed check and goes on; the first one fails
		// the run.
		var (
			mu        sync.Mutex
			violation error
		)
		check := oracle.EngineChecker()
		keepFirst := func(e *sim.Engine, res *core.Result, rep sim.SlotReport, info sim.StepInfo) error {
			err := check(e, res, rep, info)
			mu.Lock()
			defer mu.Unlock()
			if violation == nil {
				violation = err
			}
			return err
		}
		c, err := New(Config{Net: net, Shards: 2, Seed: 7, CheckpointPath: path, StepChecker: keepFirst})
		if err != nil {
			for name, want := range files {
				if got, rerr := os.ReadFile(filepath.Join(dir, name)); rerr != nil || !bytes.Equal(got, want) {
					t.Fatalf("refused restore (%v) changed %s (read error %v)", err, name, rerr)
				}
			}
			return
		}
		c.Start()
		if err := c.Tick(); err != nil {
			t.Fatalf("tick after restore: %v", err)
		}
		if err := c.Stop(); err != nil {
			t.Fatalf("stop after restore: %v", err)
		}
		mu.Lock()
		defer mu.Unlock()
		if violation != nil {
			t.Fatalf("restored state breaks an invariant: %v", violation)
		}
	})
}

// liveGeneration runs a 2-shard cluster under cfg (its network and any
// tuning) for a few slots with pending and running requests accessing
// stations 0..access-1, stops it, and returns the manifest and the two
// shard files of the one generation Stop wrote.
func liveGeneration(tb testing.TB, cfg Config, access int) (manifest, shard0, shard1 []byte) {
	tb.Helper()
	dir := tb.TempDir()
	cfg.Shards, cfg.Seed, cfg.CheckpointPath = 2, 7, filepath.Join(dir, "cluster.json")
	c, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	c.Start()
	for slot := 0; slot < 4; slot++ {
		specs := make([]serve.RequestSpec, 6)
		for i := range specs {
			specs[i] = serve.RequestSpec{AccessStation: (slot + i) % access, DurationSlots: 5}
		}
		if _, err := c.SubmitBatch(specs); err != nil {
			tb.Fatal(err)
		}
		if err := c.Tick(); err != nil {
			tb.Fatal(err)
		}
	}
	if err := c.Stop(); err != nil {
		tb.Fatal(err)
	}
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			tb.Fatalf("the live cluster's first generation: %v", err)
		}
		return data
	}
	return read("cluster.json"), read("cluster.json.shard0.gen1"), read("cluster.json.shard1.gen1")
}
