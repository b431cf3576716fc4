package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"mecoffload/internal/bandit"
	"mecoffload/internal/ckpt"
	"mecoffload/internal/serve"
	"mecoffload/internal/sim"
)

// ManifestVersion is the cluster manifest format version written. Version
// 2 shard snapshots carry cluster ids; version 1, still read, numbered
// each shard's requests locally and translated through a per-shard id
// table.
const ManifestVersion = 2

// ErrNoManifest reports a missing manifest file (a fresh start).
var ErrNoManifest = errors.New("cluster: no manifest")

// manifestIDPair is one entry of a version-1 manifest's id table: a
// request's shard-local id and the cluster id clients hold.
type manifestIDPair struct {
	Ext    uint64 `json:"ext"`
	Global uint64 `json:"global"`
}

// manifestShard describes one shard's snapshot: which global stations
// it owned and the snapshot file (relative to the manifest). IDs is read
// from version-1 manifests and never written.
type manifestShard struct {
	Index    int              `json:"index"`
	Stations []int            `json:"stations"`
	File     string           `json:"file"`
	IDs      []manifestIDPair `json:"ids,omitempty"`
}

// Manifest composes per-shard serve checkpoints into one recoverable
// cluster state. The manifest is written atomically AFTER every shard
// file, so a crash mid-checkpoint leaves the previous generation fully
// intact; restore is shard-count-agnostic because all state is recorded
// in global station and request ids.
type Manifest struct {
	Version      int             `json:"version"`
	Generation   uint64          `json:"generation"`
	Slot         int             `json:"slot"`
	Scheduler    string          `json:"scheduler"`
	NextGlobalID uint64          `json:"nextGlobalId"`
	Shards       []manifestShard `json:"shards"`
}

// shardFile names one shard's snapshot for one manifest generation.
func shardFile(base string, shard int, gen uint64) string {
	return fmt.Sprintf("%s.shard%d.gen%d", base, shard, gen)
}

// checkpointLocked takes a full cluster checkpoint, split into a cheap
// extraction under the clock lock and a disk job on the single-flight
// writer. Extraction is one epSnapshot epoch — every shard flushes its
// batched-ingest residue and hands back a copy-on-write snapshot — plus
// the manifest skeleton; JSON encoding, temp files, fsync, the
// generation-stamped shard renames, the manifest rename, and the
// previous generation's sweep all run inside the writer job. With
// syncWrite (Stop's final manifest, and every checkpoint when
// AsyncCheckpoint is off) the call blocks until the generation is
// durable; otherwise it returns right after extraction and the write
// proceeds in the background, latest generation winning if the clock
// laps the disk. The manifest is still written atomically AFTER every
// shard file, so a crash mid-write leaves the previous generation fully
// intact. A shard that already drained and exited contributes the
// snapshot it took on the way out — learner, counters, no requests — so
// the final manifest of a clean shutdown loses nothing; only a shard with
// no snapshot at all gets an empty placeholder, so restore still sees
// every partition.
func (c *Cluster) checkpointLocked(syncWrite bool) error {
	if c.clockStopped {
		return serve.ErrStopped
	}
	// Settle pending fused feedback first so the captured bandit state
	// is post-feedback — byte-identical to the pre-fusion schedule's.
	if err := c.settleFeedbackLocked(); err != nil {
		return err
	}
	c.epoch(epochMsg{op: epSnapshot})
	base := c.cfg.CheckpointPath
	gen := c.manifestGen + 1
	man := &Manifest{
		Version:    ManifestVersion,
		Generation: gen,
		Slot:       c.slot,
		Scheduler:  c.nodes[0].eng.SchedulerName(),
	}
	snaps := make([]*serve.Checkpoint, len(c.nodes))
	files := make([]string, len(c.nodes))
	for k, nd := range c.nodes {
		if nd.snapErr != nil {
			return fmt.Errorf("cluster: snapshotting shard %d: %w", k, nd.snapErr)
		}
		ck := nd.snap
		nd.snap = nil
		if ck == nil {
			ck = &serve.Checkpoint{
				Version:   serve.CheckpointVersion,
				Slot:      c.slot,
				Scheduler: man.Scheduler,
			}
		} else if nd.rehomedIn > 0 {
			// Persist Submitted as Totals reports it: each accepted request
			// once. On a copy — a drained shard's snapshot is shared.
			cp := *ck
			cp.Totals.Submitted -= nd.rehomedIn
			ck = &cp
		}
		snaps[k] = ck
		files[k] = shardFile(base, k, gen)
		man.Shards = append(man.Shards, manifestShard{
			Index:    k,
			Stations: append([]int(nil), nd.stations...),
			File:     filepath.Base(files[k]),
		})
	}
	man.NextGlobalID = c.router.stats().Routed
	// The generation number is consumed at extraction: if this write is
	// later superseded or fails, the numbering simply skips — restore
	// only ever follows the manifest, never guesses file names.
	c.manifestGen = gen
	job := func() error {
		for k, ck := range snaps {
			if err := serve.WriteCheckpoint(files[k], ck); err != nil {
				return fmt.Errorf("cluster: writing shard %d snapshot: %w", k, err)
			}
		}
		if err := writeManifest(base, man); err != nil {
			return err
		}
		for _, old := range c.diskPrev {
			os.Remove(old) // best-effort sweep of the superseded generation
		}
		c.diskPrev = files
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

// loadManifest reads a manifest and every shard snapshot it names. A
// file that is instead a version-1 single-engine checkpoint — what a
// daemon from before the cluster became the only serving path left at
// -checkpoint — reads as a one-shard manifest over all `stations`
// stations (legacyManifest). That format does not record how many
// stations its daemon had, so a topology change is caught only when a live
// request or stream names a station the topology lacks; a checkpoint from
// a smaller topology restores. Anything else is an error: the caller
// never starts empty over a file it cannot read.
func loadManifest(path string, stations int) (*Manifest, []*serve.Checkpoint, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil, ErrNoManifest
	}
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: reading manifest: %w", err)
	}
	// A manifest always carries "shards" and never "totals"; an engine
	// checkpoint is the reverse.
	var probe struct {
		Shards json.RawMessage `json:"shards"`
		Totals json.RawMessage `json:"totals"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, nil, fmt.Errorf("cluster: decoding manifest %s: %w", path, err)
	}
	if probe.Shards == nil {
		if probe.Totals == nil {
			return nil, nil, fmt.Errorf("cluster: %s is neither a cluster manifest nor a single-engine checkpoint", path)
		}
		ck, err := serve.DecodeCheckpoint(data, path)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: single-engine checkpoint: %w", err)
		}
		return legacyManifest(ck, stations), []*serve.Checkpoint{ck}, nil
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, nil, fmt.Errorf("cluster: decoding manifest %s: %w", path, err)
	}
	if man.Version != 1 && man.Version != ManifestVersion {
		return nil, nil, fmt.Errorf("cluster: manifest %s has version %d, want %d", path, man.Version, ManifestVersion)
	}
	dir := filepath.Dir(path)
	snaps := make([]*serve.Checkpoint, len(man.Shards))
	for i, sh := range man.Shards {
		ck, err := serve.LoadCheckpoint(filepath.Join(dir, sh.File))
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: shard %d snapshot: %w", sh.Index, err)
		}
		snaps[i] = ck
	}
	return &man, snaps, nil
}

// legacyManifest describes a single-engine checkpoint as the one-shard
// manifest it is equivalent to: the engine owned every station under its
// own index and its ids were the ids clients hold, so the station map is
// the identity and the snapshot is a current one. composeRestore then
// re-partitions it like any manifest (and rejects a checkpoint whose
// requests or streams name stations the topology does not have); the
// next checkpoint rewrites the file as a real manifest, generation 1.
func legacyManifest(ck *serve.Checkpoint, stations int) *Manifest {
	sh := manifestShard{Stations: make([]int, stations)}
	for i := range sh.Stations {
		sh.Stations[i] = i
	}
	return &Manifest{
		Version:      ManifestVersion,
		Slot:         ck.Slot,
		Scheduler:    ck.Scheduler,
		NextGlobalID: ck.NextExternalID,
		Shards:       []manifestShard{sh},
	}
}

// globalRequest is one live request lifted into global station ids
// during restore composition.
type globalRequest struct {
	id      uint64
	arrival int
	spec    serve.RequestSpec    // AccessStation in global ids
	running *sim.RunningSnapshot // stations in global ids; nil if pending
}

// globalizeIDs rewrites a version-1 shard snapshot, which numbered its
// requests locally, into cluster ids through the manifest's id table — the
// one legacy branch of the restore. The snapshot is edited in place: it was
// decoded for this restore and nothing else reads it.
func globalizeIDs(sh manifestShard, ck *serve.Checkpoint) error {
	clusterID := make(map[uint64]uint64, len(sh.IDs))
	for _, p := range sh.IDs {
		clusterID[p.Ext] = p.Global
	}
	for i := range ck.Requests {
		g, ok := clusterID[ck.Requests[i].ExternalID]
		if !ok {
			return fmt.Errorf("request ext=%d missing from manifest id table", ck.Requests[i].ExternalID)
		}
		ck.Requests[i].ExternalID = g
	}
	for i := range ck.Running {
		g, ok := clusterID[uint64(ck.Running[i].Request)]
		if !ok {
			return fmt.Errorf("running stream ext=%d missing from manifest id table", ck.Running[i].Request)
		}
		ck.Running[i].Request = int(g)
	}
	return nil
}

// composeRestore merges the manifest's per-shard snapshots into one
// request set and re-partitions it onto the CURRENT shard layout, which
// may differ from the one that wrote the manifest. Every request keeps its
// id. Pending requests re-route through the normal candidate rule (which
// also re-derives a spanning request's candidates); running streams must
// land on a shard owning every station they hold shares on — a stream
// split by the new partition is a loud error, not a silent drop. The
// learner state is cloned into every new shard (each shard's bandit
// continues from the global reward history) and lifetime totals accumulate
// onto shard 0 so cluster-wide counters survive resharding.
func (c *Cluster) composeRestore(man *Manifest, snaps []*serve.Checkpoint) ([]*serve.Checkpoint, error) {
	var merged []globalRequest
	var banditSnap *bandit.LipschitzSnapshot
	var banditSlot int
	var totals serve.Totals
	for si, sh := range man.Shards {
		ck := snaps[si]
		addTotals(&totals, ck.Totals)
		// A shard that drained early stopped learning at its exit slot:
		// take the learner that saw the most slots (first shard on a tie).
		if ck.Bandit != nil && (banditSnap == nil || ck.Slot > banditSlot) {
			banditSnap, banditSlot = ck.Bandit, ck.Slot
		}
		if man.Version == 1 {
			if err := globalizeIDs(sh, ck); err != nil {
				return nil, fmt.Errorf("shard %d %w", sh.Index, err)
			}
		}
		runOf := make(map[uint64]*sim.RunningSnapshot, len(ck.Running))
		for i := range ck.Running {
			runOf[uint64(ck.Running[i].Request)] = &ck.Running[i]
		}
		for _, cr := range ck.Requests {
			if cr.Spec.AccessStation < 0 || cr.Spec.AccessStation >= len(sh.Stations) {
				return nil, fmt.Errorf("shard %d request %d access station %d outside its partition", sh.Index, cr.ExternalID, cr.Spec.AccessStation)
			}
			gr := globalRequest{id: cr.ExternalID, arrival: cr.ArrivalSlot, spec: cr.Spec}
			gr.spec.AccessStation = sh.Stations[cr.Spec.AccessStation]
			if cr.Running {
				rs := runOf[cr.ExternalID]
				if rs == nil {
					return nil, fmt.Errorf("shard %d request %d marked running but has no stream snapshot", sh.Index, cr.ExternalID)
				}
				var err error
				gr.running, err = remapStream(rs, func(l int) (int, error) {
					if l < 0 || l >= len(sh.Stations) {
						return 0, fmt.Errorf("stream station %d outside its partition", l)
					}
					return sh.Stations[l], nil
				})
				if err != nil {
					return nil, fmt.Errorf("shard %d request %d: %w", sh.Index, cr.ExternalID, err)
				}
			}
			merged = append(merged, gr)
		}
	}
	sort.Slice(merged, func(a, b int) bool { return merged[a].id < merged[b].id })

	out := make([]*serve.Checkpoint, len(c.parts))
	for k := range out {
		out[k] = &serve.Checkpoint{
			Version:   serve.CheckpointVersion,
			Slot:      man.Slot,
			Scheduler: man.Scheduler,
		}
	}
	live := make([]routed, 0, len(merged))
	for i, gr := range merged {
		if i > 0 && merged[i-1].id == gr.id {
			return nil, fmt.Errorf("request id %d appears twice", gr.id)
		}
		shard, spanCands, err := c.router.route(gr.spec)
		if err != nil {
			return nil, fmt.Errorf("re-routing request %d: %w", gr.id, err)
		}
		cr := serve.CheckpointRequest{ExternalID: gr.id, ArrivalSlot: gr.arrival, Spec: gr.spec}
		if gr.running != nil {
			// A stream stays where its stations are, and is nobody's
			// migration candidate.
			if shard, err = c.streamOwner(gr.running); err != nil {
				return nil, fmt.Errorf("running stream for request %d: %w", gr.id, err)
			}
			ls, err := remapStream(gr.running, func(g int) (int, error) {
				l, ok := c.nodes[shard].localOf[g] // streamOwner proved every station lands here
				if !ok {
					return 0, fmt.Errorf("station %d not owned by shard %d", g, shard)
				}
				return l, nil
			})
			if err != nil {
				return nil, fmt.Errorf("running stream for request %d: %w", gr.id, err)
			}
			cr.Running = true
			out[shard].Running = append(out[shard].Running, *ls)
			live = append(live, routed{id: gr.id, shard: shard})
		} else {
			live = append(live, routed{id: gr.id, shard: shard, cands: spanCands})
		}
		cr.Spec = c.localSpec(shard, gr.spec, spanCands)
		out[shard].Requests = append(out[shard].Requests, cr)
	}
	c.router.restore(man.NextGlobalID, live)
	next := c.router.stats().Routed
	for k := range out {
		out[k].NextExternalID = next
		out[k].Bandit = banditSnap.Clone()
	}
	addTotals(&out[0].Totals, totals)
	return out, nil
}

// restore sets a fresh router to a manifest's state: ids continue at next
// (or past the newest live id, should the manifest's counter be behind),
// live are the restored requests in ascending id on the shards they were
// re-partitioned onto, and those with candidates are listed for the sweep.
// The window opens at the first live id it can cover; what lies between
// the live ids is unknown.
func (rt *router) restore(next uint64, live []routed) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if n := len(live); n > 0 && live[n-1].id >= next {
		next = live[n-1].id + 1
	}
	rt.nextGlobal, rt.base = next, next
	first, _ := slices.BinarySearchFunc(live, next-min(next, uint64(rt.window)), routed.compareID)
	if first < len(live) {
		rt.base = live[first].id
	}
	rt.shards = make([]int32, next-rt.base)
	for i := range rt.shards {
		rt.shards[i] = unknownShard
	}
	for _, sc := range live[first:] {
		rt.shards[sc.id-rt.base] = int32(sc.shard)
	}
	for _, sc := range live {
		if len(sc.cands) > 0 {
			rt.span = append(rt.span, sc)
		}
	}
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

// remapStream returns a copy of a running snapshot with every station it
// names passed through mapSt: shard-local to global when a snapshot is
// lifted out of the partition that wrote it, global to shard-local when it
// lands on its new shard.
func remapStream(rs *sim.RunningSnapshot, mapSt func(int) (int, error)) (*sim.RunningSnapshot, error) {
	var err error
	remap := func(shares map[int]float64) map[int]float64 {
		out := make(map[int]float64, len(shares))
		for from, mhz := range shares {
			to, merr := mapSt(from)
			if merr != nil {
				err = merr
			}
			out[to] = mhz
		}
		return out
	}
	out := *rs
	out.Shares = remap(rs.Shares)
	if rs.ExpShares != nil {
		out.ExpShares = remap(rs.ExpShares)
	}
	proc, perr := mapSt(rs.ProcStation)
	if perr != nil {
		err = perr
	}
	out.ProcStation = proc
	return &out, err
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
