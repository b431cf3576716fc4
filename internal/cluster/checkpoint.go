package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"

	"mecoffload/internal/bandit"
	"mecoffload/internal/ckpt"
	"mecoffload/internal/serve"
	"mecoffload/internal/sim"
)

// ManifestVersion is the one cluster manifest format version written and
// read. One file holds the whole generation: each shard's snapshot sits in
// its manifest entry, in cluster request ids and global station ids.
// Version 3, whose shard snapshots were files beside the manifest,
// version 2, whose shard snapshots numbered stations densely within each
// shard's partition, and version 1, which also numbered each shard's
// requests locally behind a per-shard id table, are refused.
const ManifestVersion = 4

// ErrNoManifest reports a missing manifest file (a fresh start).
var ErrNoManifest = errors.New("cluster: no manifest")

// manifestShard is one shard's part of a generation: the global stations
// it owned and its snapshot.
type manifestShard struct {
	Index      int               `json:"index"`
	Stations   []int             `json:"stations"`
	Checkpoint *serve.Checkpoint `json:"checkpoint"`
}

// Manifest is one recoverable cluster state: every shard's serve
// checkpoint in one file, published by one atomic rename, so a crash
// mid-write leaves the previous generation whole. Restore is
// shard-count-agnostic because all state is recorded in global station
// and request ids.
type Manifest struct {
	Version      int             `json:"version"`
	Generation   uint64          `json:"generation"`
	Slot         int             `json:"slot"`
	Scheduler    string          `json:"scheduler"`
	NextGlobalID uint64          `json:"nextGlobalId"`
	Shards       []manifestShard `json:"shards"`
}

// checkpointLocked takes a full cluster checkpoint, split into a cheap
// extraction under the clock lock and a disk job on the single-flight
// writer. Extraction has every shard, in shard order, flush its door's
// residue and hand back a copy-on-write snapshot, and builds the manifest
// around them; JSON encoding, the temp file, fsync and the
// rename run inside the writer job. With syncWrite (Stop's final
// manifest) the call blocks until the generation is durable; otherwise it
// returns right after extraction and the write proceeds in the
// background, latest generation winning if the clock laps the disk. The
// clock calls it only while every shard runs — periodically, and at Stop
// before the shards stop — so every shard answers with its live state,
// after a drain too: the learner as fed through the last slot, the
// counters, and no requests.
func (c *Cluster) checkpointLocked(syncWrite bool) error {
	gen := c.manifestGen + 1
	man := &Manifest{
		Version:    ManifestVersion,
		Generation: gen,
		Slot:       c.slot,
		Scheduler:  "DynamicRR", // a record, as in every shard's snapshot
	}
	for k, eng := range c.engines {
		err := eng.Flush()
		var ck *serve.Checkpoint
		if err == nil {
			ck, err = eng.Snapshot()
		}
		if err != nil {
			return fmt.Errorf("cluster: snapshotting shard %d: %w", k, err)
		}
		man.Shards = append(man.Shards, manifestShard{
			Index:      k,
			Stations:   append([]int(nil), c.parts[k]...),
			Checkpoint: ck,
		})
	}
	man.NextGlobalID = c.router.stats().Routed
	// The generation number is consumed at extraction: if this write is
	// later superseded or fails, the numbering simply skips.
	c.manifestGen = gen
	job := func() error {
		if err := writeManifest(c.cfg.CheckpointPath, man); err != nil {
			return err
		}
		c.checkpoints.Add(1)
		return nil
	}
	if syncWrite {
		return c.ckw.SubmitWait(job)
	}
	return c.ckw.Submit(job)
}

// writeManifest persists the manifest atomically (ckpt.WriteFileAtomic).
func writeManifest(path string, man *Manifest) error {
	data, err := json.MarshalIndent(man, "", " ")
	if err != nil {
		return fmt.Errorf("cluster: encoding manifest: %w", err)
	}
	if err := ckpt.WriteFileAtomic(path, data); err != nil {
		return fmt.Errorf("cluster: publishing manifest %s: %w", path, err)
	}
	return nil
}

// loadManifest reads a version-4 manifest, every shard's snapshot in it.
// Anything else — an older manifest, a single-engine checkpoint, a shard
// with no snapshot or one of another snapshot version — is an error: the
// caller never starts empty over a file it cannot read.
func loadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNoManifest
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: reading manifest: %w", err)
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("cluster: decoding manifest %s: %w", path, err)
	}
	if man.Version != ManifestVersion {
		return nil, fmt.Errorf("cluster: manifest %s has version %d, want %d", path, man.Version, ManifestVersion)
	}
	for _, sh := range man.Shards {
		if sh.Checkpoint == nil {
			return nil, fmt.Errorf("cluster: manifest %s: shard %d has no checkpoint", path, sh.Index)
		}
		if v := sh.Checkpoint.Version; v != serve.CheckpointVersion {
			return nil, fmt.Errorf("cluster: manifest %s: shard %d checkpoint has version %d, want %d", path, sh.Index, v, serve.CheckpointVersion)
		}
	}
	return &man, nil
}

// checkStations refuses a manifest written for another topology: its
// shards' station lists, taken together, must name each of the network's
// stations exactly once. Every manifest checkpointLocked writes does, so
// only a foreign or corrupt file fails.
func checkStations(man *Manifest, stations int) error {
	seen := make([]bool, stations)
	listed, covered := 0, 0
	for _, sh := range man.Shards {
		listed += len(sh.Stations)
		for _, st := range sh.Stations {
			if st >= 0 && st < stations && !seen[st] {
				seen[st] = true
				covered++
			}
		}
	}
	if listed != stations || covered != stations {
		return fmt.Errorf("manifest lists %d stations over its shards, not each of the network's %d exactly once", listed, stations)
	}
	return nil
}

// composeRestore merges the manifest's per-shard snapshots into one
// request set and re-partitions it onto the CURRENT shard layout, which
// may differ from the one that wrote the manifest, over the SAME stations
// (checkStations refuses a manifest written for another topology). Every
// request keeps its id, and every station id means the same station in
// both layouts. Pending requests re-route through the normal candidate
// rule (which also re-derives a spanning request's candidates); running
// streams must land on a shard owning every station they hold shares on —
// a stream split by the new partition is a loud error, not a silent drop.
// Over the same partition every shard continues from its own learner;
// after a reshard each new shard continues from a clone of the learner
// that saw the most slots. Lifetime totals accumulate onto shard 0 so
// cluster-wide counters survive resharding.
func (c *Cluster) composeRestore(man *Manifest) ([]*serve.Checkpoint, error) {
	if err := checkStations(man, len(c.owner)); err != nil {
		return nil, err
	}
	var merged []serve.CheckpointRequest
	streams := make(map[uint64]*sim.RunningSnapshot)
	var banditSnap *bandit.LipschitzSnapshot
	var banditSlot int
	var totals serve.Totals
	for _, sh := range man.Shards {
		ck := sh.Checkpoint
		addTotals(&totals, ck.Totals)
		// Take the learner that saw the most slots (first shard on a tie).
		// Every shard of a manifest this code writes has the cluster's slot;
		// an older writer let a drained shard exit early, and its snapshot
		// stopped at that slot.
		if ck.Bandit != nil && (banditSnap == nil || ck.Slot > banditSlot) {
			banditSnap, banditSlot = ck.Bandit, ck.Slot
		}
		runOf := make(map[uint64]*sim.RunningSnapshot, len(ck.Running))
		for i := range ck.Running {
			runOf[uint64(ck.Running[i].Request)] = &ck.Running[i]
		}
		for _, cr := range ck.Requests {
			if cr.Running {
				rs := runOf[cr.ExternalID]
				if rs == nil {
					return nil, fmt.Errorf("shard %d request %d marked running but has no stream snapshot", sh.Index, cr.ExternalID)
				}
				streams[cr.ExternalID] = rs
			}
			merged = append(merged, cr)
		}
	}
	sort.Slice(merged, func(a, b int) bool { return merged[a].ExternalID < merged[b].ExternalID })

	out := make([]*serve.Checkpoint, len(c.parts))
	for k := range out {
		out[k] = &serve.Checkpoint{
			Version:   serve.CheckpointVersion,
			Slot:      man.Slot,
			Scheduler: man.Scheduler,
		}
	}
	// Ids continue past the newest live one, should the manifest's counter
	// be behind.
	next := man.NextGlobalID
	for i, cr := range merged {
		id := cr.ExternalID
		if i > 0 && merged[i-1].ExternalID == id {
			return nil, fmt.Errorf("request id %d appears twice", id)
		}
		if id == math.MaxUint64 {
			return nil, fmt.Errorf("request id %d leaves no id to allocate after it", id)
		}
		shard, spanCands, spanning, err := c.router.route(cr.Spec, nil)
		if err != nil {
			return nil, fmt.Errorf("re-routing request %d: %w", id, err)
		}
		if !spanning {
			spanCands = nil
		}
		if cr.Running {
			// A stream stays where its stations are.
			rs := streams[id]
			if shard, err = c.streamOwner(rs); err != nil {
				return nil, fmt.Errorf("running stream for request %d: %w", id, err)
			}
			out[shard].Running = append(out[shard].Running, *rs)
		}
		next = max(next, id+1)
		cr.Spec = c.homeSpec(shard, cr.Spec, spanCands)
		out[shard].Requests = append(out[shard].Requests, cr)
	}
	c.router.restore(next)
	same := len(man.Shards) == len(c.parts)
	for k := 0; same && k < len(c.parts); k++ {
		same = slices.Equal(man.Shards[k].Stations, c.parts[k])
	}
	for k := range out {
		out[k].NextExternalID = next
		if same {
			banditSnap = man.Shards[k].Checkpoint.Bandit
		}
		out[k].Bandit = banditSnap.Clone()
	}
	addTotals(&out[0].Totals, totals)
	return out, nil
}

// streamOwner finds the unique new shard owning every station a running
// stream touches.
func (c *Cluster) streamOwner(rs *sim.RunningSnapshot) (int, error) {
	shard := -1
	check := func(st int) error {
		if st < 0 || st >= len(c.owner) {
			return fmt.Errorf("station %d out of range", st)
		}
		if shard < 0 {
			shard = c.owner[st]
		} else if c.owner[st] != shard {
			return fmt.Errorf("stream spans shards %d and %d (stations %v / procStation %d); "+
				"restore with a partition that keeps its stations together", shard, c.owner[st], keysOf(rs.Shares), rs.ProcStation)
		}
		return nil
	}
	for st := range rs.Shares {
		if err := check(st); err != nil {
			return 0, err
		}
	}
	for st := range rs.ExpShares {
		if err := check(st); err != nil {
			return 0, err
		}
	}
	if err := check(rs.ProcStation); err != nil {
		return 0, err
	}
	if shard < 0 {
		return 0, fmt.Errorf("stream holds no stations")
	}
	return shard, nil
}

func addTotals(dst *serve.Totals, src serve.Totals) {
	dst.Submitted += src.Submitted
	dst.Rejected += src.Rejected
	dst.Admitted += src.Admitted
	dst.Served += src.Served
	dst.Evicted += src.Evicted
	dst.Expired += src.Expired
	dst.Departed += src.Departed
	dst.Ticks += src.Ticks
	dst.Reward += src.Reward
	dst.Batches += src.Batches
	dst.BatchReqs += src.BatchReqs
	dst.Shed += src.Shed
	dst.Saturated += src.Saturated
}

func keysOf(m map[int]float64) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
