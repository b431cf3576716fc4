package cluster_test

// The periodic-checkpoint contract: taking the disk half of a checkpoint
// off the cluster clock must be invisible in the bytes (a background
// generation equals Stop's synchronous one of the same slot), survivable
// (a crash before the manifest rename restores the previous generation
// intact), and actually off the clock (a tick that coincides with a
// checkpoint must not stall behind the write).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"mecoffload/internal/cluster"
	"mecoffload/internal/serve"
)

// TestAsyncCheckpointByteEquivalence: a deterministic schedule — one
// single-outcome request per island per slot, manual ticks — checkpoints
// every 4 slots on the background writer. The generation written after
// the last slot and the one Stop writes synchronously right after it hold
// the same slot, so their bytes must be identical except for the
// generation number. Run under -race in CI's cluster-parity job.
func TestAsyncCheckpointByteEquivalence(t *testing.T) {
	const islands, per, slots = 4, 2, 16
	net := islandNetwork(t, islands, per)
	cfg := parityConfig(net, 2)
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "cluster.json")
	cfg.CheckpointEvery = 4
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	for s := 0; s < slots; s++ {
		for isl := 0; isl < islands; isl++ {
			if _, _, err := c.Submit(serve.RequestSpec{
				AccessStation: isl * per,
				DurationSlots: 2,
				Outcomes:      []serve.OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: float64(100 + (s*37+isl)%400)}},
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		c.WaitCheckpoints()
	}
	if d := c.CheckpointsDropped(); d != 0 {
		t.Fatalf("dropped %d generations despite waiting out every write", d)
	}
	periodic := readManifest(t, cfg.CheckpointPath)
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	<-c.Done()
	final := readManifest(t, cfg.CheckpointPath)

	gen := func(data []byte) (m cluster.Manifest) {
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	pm, fm := gen(periodic), gen(final)
	if want := uint64(slots / cfg.CheckpointEvery); pm.Generation != want || fm.Generation != want+1 || pm.Slot != slots || fm.Slot != slots {
		t.Fatalf("periodic generation %d at slot %d, final %d at slot %d; want %d and %d, both at slot %d",
			pm.Generation, pm.Slot, fm.Generation, fm.Slot, want, want+1, slots)
	}
	requests := 0
	for _, sh := range pm.Shards {
		requests += len(sh.Checkpoint.Requests)
		if sh.Checkpoint.Bandit == nil {
			t.Fatalf("shard %d carries no learner: a vacuous comparison", sh.Index)
		}
	}
	if requests == 0 {
		t.Fatal("the periodic generation holds no request: a vacuous comparison")
	}
	stamp := func(g uint64) []byte { return []byte(fmt.Sprintf(`"generation": %d,`, g)) }
	if !bytes.Contains(periodic, stamp(pm.Generation)) {
		t.Fatalf("no generation field %s to align", stamp(pm.Generation))
	}
	if aligned := bytes.Replace(periodic, stamp(pm.Generation), stamp(fm.Generation), 1); !bytes.Equal(aligned, final) {
		t.Fatalf("the background generation differs from Stop's synchronous one beyond its number:\n%s\n---\n%s", periodic, final)
	}
}

// readManifest returns the bytes of the manifest at path.
func readManifest(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestAsyncCheckpointCrashRestore simulates the worst crash window the
// background writer opens: generation G+1 was extracted and its temp file
// partly written, but the process died before the rename. Restore must
// come back from generation G with every request's ownership intact,
// remove the stray temp file (and nothing else), and keep scheduling.
func TestAsyncCheckpointCrashRestore(t *testing.T) {
	const islands, per = 4, 2
	net := islandNetwork(t, islands, per)
	dir := t.TempDir()
	manifest := filepath.Join(dir, "cluster.json")

	cfg := parityConfig(net, 2)
	cfg.CheckpointPath = manifest
	cfg.CheckpointEvery = 2
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	// A mix of running streams (submitted, then ticked into service) and
	// still-pending requests, so the restore has both to prove.
	var ids []uint64
	for isl := 0; isl < islands; isl++ {
		id, _, err := c.Submit(serve.RequestSpec{
			AccessStation: isl * per,
			DurationSlots: 6,
			Outcomes:      []serve.OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: 500}},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < 2; i++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	for isl := 0; isl < islands; isl++ {
		id, _, err := c.Submit(serve.RequestSpec{
			AccessStation: isl * per,
			DurationSlots: 2,
			Outcomes:      []serve.OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: 300}},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	states := map[uint64]string{}
	for _, id := range ids {
		rec, ok, err := c.Status(id)
		if err != nil || !ok {
			t.Fatalf("pre-stop status %d: ok=%v err=%v", id, ok, err)
		}
		states[id] = string(rec.State)
	}
	if err := c.Stop(); err != nil { // final synchronous manifest: generation G
		t.Fatal(err)
	}
	<-c.Done()

	// The crash residue of an unfinished generation G+1: a stray
	// manifest temp file.
	stray := filepath.Join(dir, "cluster.json.tmp123")
	if err := os.WriteFile(stray, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A file outside the manifest's temp pattern is none of the cluster's.
	other := filepath.Join(dir, "cluster.jsontmp1")
	if err := os.WriteFile(other, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}

	rcfg := parityConfig(net, 4) // reshard on the way back for good measure
	rcfg.CheckpointPath = manifest
	rc, err := cluster.New(rcfg)
	if err != nil {
		t.Fatalf("restore after simulated crash: %v", err)
	}
	if _, err := os.Stat(stray); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale manifest temp file survived the restore: %v", err)
	}
	if data, err := os.ReadFile(other); err != nil || string(data) != "keep" {
		t.Fatalf("a file outside the temp pattern was touched: %q, %v", data, err)
	}
	rc.Start()
	for _, id := range ids {
		rec, ok, err := rc.Status(id)
		if err != nil || !ok {
			t.Fatalf("restored status %d: ok=%v err=%v", id, ok, err)
		}
		if string(rec.State) != states[id] {
			t.Fatalf("request %d restored in state %q, want %q (previous generation)", id, rec.State, states[id])
		}
		if rec.ID != id {
			t.Fatalf("request %d restored with id %d: stream ownership broken", id, rec.ID)
		}
	}
	// The restored cluster must still schedule its way to quiescence.
	for i := 0; i < 16; i++ {
		if err := rc.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		rec, ok, err := rc.Status(id)
		if err != nil || !ok {
			t.Fatalf("post-tick status %d: ok=%v err=%v", id, ok, err)
		}
		if rec.State == serve.StatePending {
			t.Fatalf("request %d still pending after 16 restored slots", id)
		}
	}
	if err := rc.Stop(); err != nil {
		t.Fatal(err)
	}
	<-rc.Done()
}

// TestTickPauseBoundWhileCheckpointing is the stop-the-world guard: with
// checkpoints firing every 4 slots on a loaded cluster, no tick may stall far beyond the median — the old
// synchronous path froze every shard for the full encode+fsync+rename.
// The 10ms absolute floor keeps the 5× ratio from tripping on scheduler
// noise when the median lands in the tens of microseconds (this test
// runs under -race in CI, which inflates everything but the ratio).
func TestTickPauseBoundWhileCheckpointing(t *testing.T) {
	const islands, per, slots = 4, 2, 64
	net := islandNetwork(t, islands, per)
	dir := t.TempDir()
	cfg := parityConfig(net, 2)
	cfg.CheckpointPath = filepath.Join(dir, "cluster.json")
	cfg.CheckpointEvery = 4
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer func() { _ = c.Stop() }()

	lat := make([]time.Duration, 0, slots)
	for s := 0; s < slots; s++ {
		for isl := 0; isl < islands; isl++ {
			if _, _, err := c.Submit(serve.RequestSpec{
				AccessStation: isl * per,
				DurationSlots: 2,
				Outcomes:      []serve.OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: 400}},
			}); err != nil {
				t.Fatal(err)
			}
		}
		start := time.Now()
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		lat = append(lat, time.Since(start))
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	median, max := lat[len(lat)/2], lat[len(lat)-1]
	bound := 5 * median
	if floor := 10 * time.Millisecond; bound < floor {
		bound = floor
	}
	if max > bound {
		t.Fatalf("max tick pause %v exceeds bound %v (median %v): checkpointing is back on the clock path", max, bound, median)
	}
}
