package cluster

// Restore reads one format, the one checkpointLocked writes: a version-4
// manifest holding every shard's version-1 snapshot in global station ids,
// whose station lists cover the network it is restored onto exactly once.
// Everything else fails New and stays on disk as it was.

import (
	"bytes"
	"encoding/json"
	"fmt"
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

// version3 rewrites a version-4 manifest as the generation the version-3
// writer left: a manifest naming one file per shard, and those files.
func version3(t *testing.T, manifest []byte) map[string][]byte {
	t.Helper()
	var man Manifest
	if err := json.Unmarshal(manifest, &man); err != nil {
		t.Fatal(err)
	}
	type fileShard struct {
		Index    int    `json:"index"`
		Stations []int  `json:"stations"`
		File     string `json:"file"`
	}
	old := struct {
		Version      int         `json:"version"`
		Generation   uint64      `json:"generation"`
		Slot         int         `json:"slot"`
		Scheduler    string      `json:"scheduler"`
		NextGlobalID uint64      `json:"nextGlobalId"`
		Shards       []fileShard `json:"shards"`
	}{3, man.Generation, man.Slot, man.Scheduler, man.NextGlobalID, nil}
	files := map[string][]byte{}
	for _, sh := range man.Shards {
		name := fmt.Sprintf("cluster.json.shard%d.gen%d", sh.Index, man.Generation)
		old.Shards = append(old.Shards, fileShard{sh.Index, sh.Stations, name})
		data, err := json.MarshalIndent(sh.Checkpoint, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		files[name] = data
	}
	data, err := json.MarshalIndent(old, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	files["cluster.json"] = data
	return files
}

// TestCheckpointRejected: a file at CheckpointPath that is not a manifest
// of the one format, or was written for another topology, fails New at any
// shard count, and every file in its directory is left byte for byte as it
// was — the daemon never starts empty over state it cannot read.
func TestCheckpointRejected(t *testing.T) {
	net4, net8 := chainTestNetwork(t, 4), chainTestNetwork(t, 8)
	man := liveGeneration(t, Config{Net: net8}, 8)
	// Every rewrite below hits the first match, which lies in shard 0's
	// checkpoint (the manifest's own fields precede its shards and hold
	// none of these).
	rewrite := func(old, new string) []byte {
		out := bytes.Replace(man, []byte(old), []byte(new), 1)
		if bytes.Equal(out, man) {
			t.Fatalf("manifest holds no %s to rewrite", old)
		}
		return out
	}
	// Station ids are the network's; one past it is corruption.
	offNet := func(field string) []byte {
		re := regexp.MustCompile(`"` + field + `": \d+`)
		loc := re.FindIndex(man)
		if loc == nil {
			t.Fatalf("manifest has no %s to rewrite", field)
		}
		return slices.Concat(man[:loc[0]], []byte(`"`+field+`": 8`), man[loc[1]:])
	}
	only := func(data []byte) map[string][]byte { return map[string][]byte{"cluster.json": data} }
	v3 := version3(t, man)
	cases := []struct {
		name    string
		files   map[string][]byte
		net     *mec.Network
		wantErr string
	}{
		{"truncated", only(man[:len(man)/2]), net8, "decoding manifest"},
		{"empty", only(nil), net8, "decoding manifest"},
		{"manifest version 1", only([]byte(`{"version": 1, "slot": 4, "nextGlobalId": 24, "shards": [` +
			`{"index": 0, "stations": [0, 1, 2, 3], "file": "cluster.json.shard0.gen1", "ids": []}, ` +
			`{"index": 1, "stations": [4, 5, 6, 7], "file": "cluster.json.shard1.gen1", "ids": []}]}`)), net8, "has version 1, want 4"},
		// Version 2 numbered each shard file's stations densely within its
		// partition; read as global ids they would name other stations.
		{"manifest version 2", only(rewrite(`"version": 4`, `"version": 2`)), net8, "has version 2, want 4"},
		// Version 3 kept each shard's snapshot in a file of its own beside
		// the manifest; neither the manifest nor those files are touched.
		{"manifest version 3", v3, net8, "has version 3, want 4"},
		// A shard checkpoint is a serve.Checkpoint, the format the
		// single-engine daemon wrote at -checkpoint.
		{"single-engine checkpoint", only(v3["cluster.json.shard0.gen1"]), net8, "has version 1, want 4"},
		{"shard without checkpoint", only([]byte(`{"version": 4, "shards": [` +
			`{"index": 0, "stations": [0, 1, 2, 3, 4, 5, 6, 7]}]}`)), net8, "shard 0 has no checkpoint"},
		{"shard checkpoint version", only(rewrite(`"version": 1`, `"version": 2`)), net8, "shard 0 checkpoint has version 2, want 1"},
		{"access station off the network", only(offNet("accessStation")), net8, "access station 8 out of [0, 8)"},
		{"stream station off the network", only(offNet("procStation")), net8, "station 8 out of range"},
		// A negative share would hand its station capacity it does not
		// have.
		{"negative share", only(negatedShare(t, man)), net8, "is negative or not finite"},
		// A learner written under a policy the daemon no longer has is
		// refused, not restored as something else.
		{"retired bandit policy", only(rewrite(`"kind": "successive-elimination"`, `"kind": "sw-ucb"`)), net8, `bandit: policy does not support snapshots: kind "sw-ucb"`},
		// No engine plays a threshold range starting at 0 MHz; restoring
		// one must not swap in the default range under the arm statistics.
		{"learner range at 0", only(rewrite(`"min": 200`, `"min": 0`)), net8, "threshold range [0, 1200] MHz starts at or below 0"},
		// Every live request of either generation names only stations both
		// networks have (each stays where the router homed it), so nothing
		// but the guard tells the topologies apart.
		{"topology 4 to 8", only(liveGeneration(t, Config{Net: net4}, 4)), net8, "lists 4 stations over its shards, not each of the network's 8"},
		{"topology 8 to 4", only(liveGeneration(t, Config{Net: net8}, 4)), net4, "lists 8 stations over its shards, not each of the network's 4"},
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

// TestGenerationIsOneFile: a generation is the manifest alone. A 2-shard
// cluster that checkpoints, stops and restarts from its own manifest three
// times leaves exactly cluster.json in the directory after every periodic
// checkpoint, every Stop and every restore.
func TestGenerationIsOneFile(t *testing.T) {
	net := chainTestNetwork(t, 8)
	dir := t.TempDir()
	cfg := Config{Net: net, Shards: 2, Seed: 7, CheckpointPath: filepath.Join(dir, "cluster.json"), CheckpointEvery: 2}
	onlyManifest := func(when string) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		if !slices.Equal(names, []string{"cluster.json"}) {
			t.Fatalf("%s: the checkpoint directory holds %v, want only cluster.json", when, names)
		}
	}
	for run := 0; run < 3; run++ {
		c, err := New(cfg)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if run > 0 {
			onlyManifest(fmt.Sprintf("run %d restored", run))
		}
		c.Start()
		for slot := 0; slot < 5; slot++ {
			specs := []serve.RequestSpec{{AccessStation: slot % 8, DurationSlots: 3}, {AccessStation: 7 - slot%8, DurationSlots: 3}}
			if _, err := c.SubmitBatch(specs); err != nil {
				t.Fatal(err)
			}
			if err := c.Tick(); err != nil {
				t.Fatal(err)
			}
			c.WaitCheckpoints()
			if c.Slot() >= cfg.CheckpointEvery {
				onlyManifest(fmt.Sprintf("run %d slot %d", run, c.Slot()))
			}
		}
		if err := c.Stop(); err != nil {
			t.Fatal(err)
		}
		onlyManifest(fmt.Sprintf("run %d stopped", run))
	}
}

// negatedShare returns a manifest with the first realized share of its
// first running stream negated.
func negatedShare(tb testing.TB, manifest []byte) []byte {
	tb.Helper()
	key := []byte(`"shares": {`)
	at := bytes.Index(manifest, key)
	if at < 0 {
		tb.Fatal("manifest holds no running stream")
	}
	at += len(key)
	at += bytes.Index(manifest[at:], []byte(`": `)) + len(`": `)
	return slices.Concat(manifest[:at], []byte("-"), manifest[at:])
}

// TestRemovedSchedulerNameRestores: an older daemon run under a since
// removed `-scheduler` recorded that name for the manifest and for every
// shard: local-ratio (the deleted LP-free certificate) beside the learner
// it held, ocorp (a baseline, which has no learner) with none. The field is
// a record, not a selector: either generation restores under DynamicRR,
// with the learner it holds or a fresh one, and the generation written
// back names exactly "DynamicRR" for the manifest and "dynamicrr" for
// every shard.
func TestRemovedSchedulerNameRestores(t *testing.T) {
	net := chainTestNetwork(t, 8)
	schedulerField := regexp.MustCompile(`"scheduler": "[^"]*"`)
	// A shard's bandit object, at the indentation of a manifest's shard
	// checkpoint.
	banditField := regexp.MustCompile(`(?s)\n    "bandit": \{\n.*?\n    \},`)
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
			older := func(data []byte) []byte {
				if !schedulerField.Match(data) {
					t.Fatal("no scheduler field to rename")
				}
				data = schedulerField.ReplaceAll(data, []byte(`"scheduler": "`+tc.scheduler+`"`))
				if !tc.learner {
					if !banditField.Match(data) {
						t.Fatal("no bandit object to strip")
					}
					data = banditField.ReplaceAll(data, nil)
				}
				return data
			}
			path := writeFiles(t, map[string][]byte{"cluster.json": older(liveGeneration(t, Config{Net: net}, 8))})
			old, err := loadManifest(path)
			if err != nil {
				t.Fatal(err)
			}
			// The restore continues from the learner that saw the most
			// slots, or a fresh one when no shard holds one, and counts the
			// lifetime totals of every shard.
			var want serve.Totals
			learner := old.Shards[0].Checkpoint
			for _, sh := range old.Shards {
				addTotals(&want, sh.Checkpoint.Totals)
				if sh.Checkpoint.Slot > learner.Slot {
					learner = sh.Checkpoint
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
				written, err := loadManifest(path)
				if err != nil {
					t.Fatal(err)
				}
				for _, sh := range written.Shards {
					got, err := json.Marshal(sh.Checkpoint.Bandit)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, wantBandit) {
						t.Fatalf("round %d shard %d: bandit %s, want %s", round, sh.Index, got, wantBandit)
					}
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				fields := []string{`"scheduler": "DynamicRR"`}
				for range written.Shards {
					fields = append(fields, `"scheduler": "dynamicrr"`)
				}
				if got := schedulerField.FindAll(data, -1); fmt.Sprintf("%s", got) != fmt.Sprint(fields) {
					t.Fatalf("round %d: the manifest records %s, want exactly %s", round, got, fields)
				}
				if err := os.WriteFile(path, older(data), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
