package cluster

// Restore reads one format, the one checkpointLocked writes: a version-3
// manifest over version-1 shard snapshots in global station ids, whose
// station lists cover the network it is restored onto exactly once.
// Everything else fails New and stays on disk as it was.

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"mecoffload/internal/mec"
	"mecoffload/internal/serve"
	"mecoffload/internal/sim"
)

// generationFiles names the manifest and the two shard files of the one
// generation a 2-shard liveGeneration writes.
func generationFiles(manifest, shard0, shard1 []byte) map[string][]byte {
	return map[string][]byte{
		"cluster.json":             manifest,
		"cluster.json.shard0.gen1": shard0,
		"cluster.json.shard1.gen1": shard1,
	}
}

// writeFiles writes files into a fresh directory and returns the path of
// its cluster.json.
func writeFiles(t *testing.T, files map[string][]byte) string {
	t.Helper()
	dir := t.TempDir()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return filepath.Join(dir, "cluster.json")
}

// TestCheckpointRejected: a file at CheckpointPath that is not a manifest
// of the one format, or was written for another topology, fails New at any
// shard count, and every file in its directory is left byte for byte as it
// was — the daemon never starts empty over state it cannot read.
func TestCheckpointRejected(t *testing.T) {
	net4, net8 := chainTestNetwork(t, 4), chainTestNetwork(t, 8)
	man, s0, s1 := liveGeneration(t, Config{Net: net8}, 8)
	live := generationFiles(man, s0, s1)
	with := func(name string, data []byte) map[string][]byte {
		files := maps.Clone(live)
		files[name] = data
		return files
	}
	wrongShard := bytes.Replace(s0, []byte(`"version": 1`), []byte(`"version": 2`), 1)
	if bytes.Equal(wrongShard, s0) {
		t.Fatal("shard file has no version field to corrupt")
	}
	retired := bytes.Replace(s0, []byte(`"kind": "successive-elimination"`), []byte(`"kind": "sw-ucb"`), 1)
	if bytes.Equal(retired, s0) {
		t.Fatal("shard file holds no learner kind to rewrite")
	}
	zeroMin := bytes.Replace(s0, []byte(`"min": 200`), []byte(`"min": 0`), 1)
	if bytes.Equal(zeroMin, s0) {
		t.Fatal("shard file holds no learner range to rewrite")
	}
	version2 := bytes.Replace(man, []byte(`"version": 3`), []byte(`"version": 2`), 1)
	if bytes.Equal(version2, man) {
		t.Fatal("manifest has no version field to rewrite")
	}
	// Station ids are the network's; one past it is corruption.
	offNet := func(field string) []byte {
		re := regexp.MustCompile(`"` + field + `": \d+`)
		loc := re.FindIndex(s0)
		if loc == nil {
			t.Fatalf("shard file has no %s to rewrite", field)
		}
		return slices.Concat(s0[:loc[0]], []byte(`"`+field+`": 8`), s0[loc[1]:])
	}
	cases := []struct {
		name    string
		files   map[string][]byte
		net     *mec.Network
		wantErr string
	}{
		{"truncated", with("cluster.json", man[:len(man)/2]), net8, "decoding manifest"},
		{"empty", with("cluster.json", nil), net8, "decoding manifest"},
		{"manifest version 1", with("cluster.json", []byte(`{"version": 1, "slot": 4, "nextGlobalId": 24, "shards": [`+
			`{"index": 0, "stations": [0, 1, 2, 3], "file": "cluster.json.shard0.gen1", "ids": []}, `+
			`{"index": 1, "stations": [4, 5, 6, 7], "file": "cluster.json.shard1.gen1", "ids": []}]}`)), net8, "has version 1, want 3"},
		// Version 2 numbered each shard file's stations densely within its
		// partition; read as global ids they would name other stations.
		{"manifest version 2", with("cluster.json", version2), net8, "has version 2, want 3"},
		// A shard file is a serve.Checkpoint, the format the single-engine
		// daemon wrote at -checkpoint.
		{"single-engine checkpoint", with("cluster.json", s0), net8, "has version 1, want 3"},
		{"shard file outside", with("cluster.json", []byte(`{"version": 3, "shards": [`+
			`{"index": 0, "stations": [0, 1, 2, 3, 4, 5, 6, 7], "file": "../cluster.json"}]}`)), net8, "outside its directory"},
		{"shard file version", with("cluster.json.shard0.gen1", wrongShard), net8, "has version 2, want 1"},
		{"access station off the network", with("cluster.json.shard0.gen1", offNet("accessStation")), net8, "access station 8 out of [0, 8)"},
		{"stream station off the network", with("cluster.json.shard0.gen1", offNet("procStation")), net8, "station 8 out of range"},
		// A negative share would hand its station capacity it does not
		// have.
		{"negative share", with("cluster.json.shard0.gen1", negatedShare(t, s0)), net8, "is negative or not finite"},
		// A learner written under a policy the daemon no longer has is
		// refused, not restored as something else.
		{"retired bandit policy", with("cluster.json.shard0.gen1", retired), net8, `bandit: policy does not support snapshots: kind "sw-ucb"`},
		// No engine plays a threshold range starting at 0 MHz; restoring
		// one must not swap in the default range under the arm statistics.
		{"learner range at 0", with("cluster.json.shard0.gen1", zeroMin), net8, "threshold range [0, 1200] MHz starts at or below 0"},
		// Every live request of either generation names only stations both
		// networks have (each stays where the router homed it), so nothing
		// but the guard tells the topologies apart.
		{"topology 4 to 8", generationFiles(liveGeneration(t, Config{Net: net4}, 4)), net8, "lists 4 stations over its shards, not each of the network's 8"},
		{"topology 8 to 4", generationFiles(liveGeneration(t, Config{Net: net8}, 4)), net4, "lists 8 stations over its shards, not each of the network's 4"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeFiles(t, tc.files)
			for _, shards := range []int{1, 2} {
				_, err := New(Config{Net: tc.net, Shards: shards, Seed: 7, CheckpointPath: path})
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("shards=%d: New = %v, want an error containing %q", shards, err, tc.wantErr)
				}
			}
			entries, err := os.ReadDir(filepath.Dir(path))
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != len(tc.files) {
				t.Fatalf("refused restore left %d files, want the %d it was given", len(entries), len(tc.files))
			}
			for name, want := range tc.files {
				got, err := os.ReadFile(filepath.Join(filepath.Dir(path), name))
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("refused restore changed %s (read error %v)", name, err)
				}
			}
		})
	}
}

// negatedShare returns a shard file with the first realized share of its
// first running stream negated.
func negatedShare(tb testing.TB, shard []byte) []byte {
	tb.Helper()
	key := []byte(`"shares": {`)
	at := bytes.Index(shard, key)
	if at < 0 {
		tb.Fatal("shard file holds no running stream")
	}
	at += len(key)
	at += bytes.Index(shard[at:], []byte(`": `)) + len(`": `)
	return slices.Concat(shard[:at], []byte("-"), shard[at:])
}

// TestRemovedSchedulerNameRestores: an older daemon run under a since
// removed `-scheduler` recorded that name in its manifest and every shard
// file: local-ratio (the deleted LP-free certificate) beside the learner it
// held, ocorp (a baseline, which has no learner) with none. The field is a
// record, not a selector: either generation restores under DynamicRR, with
// the learner it holds or a fresh one, and the generation written back
// names exactly "DynamicRR" in the manifest and "dynamicrr" in every shard
// file.
func TestRemovedSchedulerNameRestores(t *testing.T) {
	net := chainTestNetwork(t, 8)
	schedulerField := regexp.MustCompile(`"scheduler": "[^"]*"`)
	banditField := regexp.MustCompile(`(?s)\n "bandit": \{\n.*?\n \},`)
	drr, err := sim.NewDynamicRR(sim.DynamicRROptions{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := drr.Bandit().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	freshBandit, err := json.Marshal(fresh)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		scheduler string
		learner   bool // the older daemon wrote its learner
	}{
		{"local-ratio", true},
		{"ocorp", false},
	} {
		t.Run(tc.scheduler, func(t *testing.T) {
			older := func(data []byte, shard bool) []byte {
				if !schedulerField.Match(data) {
					t.Fatal("no scheduler field to rename")
				}
				data = schedulerField.ReplaceAll(data, []byte(`"scheduler": "`+tc.scheduler+`"`))
				if shard && !tc.learner {
					if !banditField.Match(data) {
						t.Fatal("no bandit object to strip")
					}
					data = banditField.ReplaceAll(data, nil)
				}
				return data
			}
			man, s0, s1 := liveGeneration(t, Config{Net: net}, 8)
			path := writeFiles(t, generationFiles(older(man, false), older(s0, true), older(s1, true)))
			old, snaps, err := loadManifest(path)
			if err != nil {
				t.Fatal(err)
			}
			// The restore continues from the learner that saw the most
			// slots, or a fresh one when no shard holds one, and counts the
			// lifetime totals of every shard.
			var want serve.Totals
			learner := snaps[0]
			for _, ck := range snaps {
				addTotals(&want, ck.Totals)
				if ck.Slot > learner.Slot {
					learner = ck
				}
			}
			wantBandit := freshBandit
			if tc.learner {
				wantBandit, err = json.Marshal(learner.Bandit)
			}
			if err != nil || old.Scheduler != tc.scheduler || learner.Scheduler != tc.scheduler || (learner.Bandit != nil) != tc.learner || want.Submitted == 0 {
				t.Fatalf("generation: scheduler %q / %q, bandit %v, totals %+v, err %v", old.Scheduler, learner.Scheduler, learner.Bandit, want, err)
			}

			cfg := Config{Net: net, Shards: 2, Seed: 7, CheckpointPath: path}
			// Round 1 reads the generation round 0 left, renamed back to
			// what the older daemon wrote.
			for round := 0; round < 2; round++ {
				c, err := New(cfg)
				if err != nil {
					t.Fatalf("round %d: restoring under DynamicRR: %v", round, err)
				}
				c.Start()
				if got := c.Totals(); got != want {
					t.Fatalf("round %d: restored totals %+v, want %+v", round, got, want)
				}
				if err := c.Stop(); err != nil {
					t.Fatal(err)
				}
				written, snaps, err := loadManifest(path)
				if err != nil {
					t.Fatal(err)
				}
				for k, ck := range snaps {
					got, err := json.Marshal(ck.Bandit)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, wantBandit) {
						t.Fatalf("round %d shard %d: bandit %s, want %s", round, k, got, wantBandit)
					}
				}
				files := map[string]string{path: `"scheduler": "DynamicRR"`}
				for _, sh := range written.Shards {
					files[filepath.Join(filepath.Dir(path), sh.File)] = `"scheduler": "dynamicrr"`
				}
				for file, field := range files {
					data, err := os.ReadFile(file)
					if err != nil {
						t.Fatal(err)
					}
					if got := schedulerField.FindAll(data, -1); len(got) != 1 || string(got[0]) != field {
						t.Fatalf("round %d: %s records %q, want exactly %s", round, filepath.Base(file), got, field)
					}
					if err := os.WriteFile(file, older(data, file != path), 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}
