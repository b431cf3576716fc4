package cluster

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mecoffload/internal/mec"
	"mecoffload/internal/serve"
)

// FuzzCheckpointRestore writes fuzzed bytes as a manifest and its two
// generation-1 shard files and restores a 2-shard cluster over
// chainTestNetwork(8) from them. Restore must never panic. A refused
// checkpoint is left byte for byte as it was; an accepted one runs a slot
// and stops cleanly, writing its own manifest. The seeds are the three
// formats read today: the version-1 manifest fixture, the version-1
// single-engine fixture, and a version-2 generation a live cluster wrote.
func FuzzCheckpointRestore(f *testing.F) {
	net := chainTestNetwork(f, 8)
	read := func(path string) []byte {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	f.Add(read("testdata/manifest_v1/cluster.json"),
		read("testdata/manifest_v1/cluster.json.shard0.gen1"),
		read("testdata/manifest_v1/cluster.json.shard1.gen1"))
	f.Add(read("testdata/legacy_v1_engine.json"), []byte{}, []byte{})
	man, s0, s1 := liveGeneration(f, net)
	f.Add(man, s0, s1)

	f.Fuzz(func(t *testing.T, manifest, shard0, shard1 []byte) {
		dir := t.TempDir()
		files := map[string][]byte{
			"cluster.json":             manifest,
			"cluster.json.shard0.gen1": shard0,
			"cluster.json.shard1.gen1": shard1,
		}
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		c, err := New(Config{Net: net, Shards: 2, Seed: 7, CheckpointPath: filepath.Join(dir, "cluster.json")})
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
	})
}

// liveGeneration runs a 2-shard cluster over net for a few slots with
// pending and running requests on both shards, stops it, and returns the
// manifest and the two shard files of the one generation Stop wrote.
func liveGeneration(f *testing.F, net *mec.Network) (manifest, shard0, shard1 []byte) {
	dir := f.TempDir()
	path := filepath.Join(dir, "cluster.json")
	c, err := New(Config{Net: net, Shards: 2, Seed: 7, CheckpointPath: path})
	if err != nil {
		f.Fatal(err)
	}
	c.Start()
	for slot := 0; slot < 4; slot++ {
		specs := make([]serve.RequestSpec, 6)
		for i := range specs {
			specs[i] = serve.RequestSpec{AccessStation: (slot + i) % net.NumStations(), DurationSlots: 5}
		}
		if _, err := c.SubmitBatch(specs); err != nil {
			f.Fatal(err)
		}
		if err := c.Tick(); err != nil {
			f.Fatal(err)
		}
	}
	if err := c.Stop(); err != nil {
		f.Fatal(err)
	}
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatalf("the live cluster's first generation: %v", err)
		}
		return data
	}
	return read("cluster.json"), read("cluster.json.shard0.gen1"), read("cluster.json.shard1.gen1")
}
