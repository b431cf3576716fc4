package cluster

import (
	"cmp"
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

// ManifestVersion is the cluster manifest format version.
const ManifestVersion = 1

// ErrNoManifest reports a missing manifest file (a fresh start).
var ErrNoManifest = errors.New("cluster: no manifest")

// manifestIDPair records one live request's identity: its shard-local
// external id, its cluster-global id, and — for spanning requests — its
// global candidate stations.
type manifestIDPair struct {
	Ext      uint64 `json:"ext"`
	Global   uint64 `json:"global"`
	Spanning []int  `json:"spanning,omitempty"`
}

// manifestShard describes one shard's snapshot: which global stations
// it owned, the snapshot file (relative to the manifest), and the id
// table translating its local ids back to cluster ids.
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

// bindings builds one shard's manifest id table: a pair for each live
// request in the shard's snapshot — the only ids composeRestore ever
// looks up — in ascending global id. A request the router no longer
// knows (evicted past MaxRouted) gets no pair.
func (rt *router) bindings(shard int, live []serve.CheckpointRequest) []manifestIDPair {
	if len(live) == 0 {
		return nil
	}
	out := make([]manifestIDPair, 0, len(live))
	rt.mu.RLock()
	for _, cr := range live {
		if g, ok := rt.ext2global[shard][cr.ExternalID]; ok {
			out = append(out, manifestIDPair{Ext: cr.ExternalID, Global: g, Spanning: rt.table[g].cands})
		}
	}
	rt.mu.RUnlock()
	slices.SortFunc(out, func(a, b manifestIDPair) int { return cmp.Compare(a.Global, b.Global) })
	return out
}

func (rt *router) setNextGlobal(n uint64) {
	rt.mu.Lock()
	if n > rt.nextGlobal {
		rt.nextGlobal = n
	}
	rt.mu.Unlock()
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
			IDs:      c.router.bindings(k, ck.Requests),
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
	if man.Version != ManifestVersion {
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
// own index and its external ids were the ids clients hold, so the
// station map and the id table are identities. composeRestore then
// re-partitions it like any manifest (and rejects a checkpoint whose
// requests or streams name stations the topology does not have); the
// next checkpoint rewrites the file as a real manifest, generation 1.
func legacyManifest(ck *serve.Checkpoint, stations int) *Manifest {
	sh := manifestShard{Stations: make([]int, stations)}
	for i := range sh.Stations {
		sh.Stations[i] = i
	}
	for _, cr := range ck.Requests {
		sh.IDs = append(sh.IDs, manifestIDPair{Ext: cr.ExternalID, Global: cr.ExternalID})
	}
	return &Manifest{
		Version:      ManifestVersion,
		Slot:         ck.Slot,
		Scheduler:    ck.Scheduler,
		NextGlobalID: ck.NextExternalID,
		Shards:       []manifestShard{sh},
	}
}

// globalRequest is one live request lifted into global id space during
// restore composition.
type globalRequest struct {
	global   uint64
	arrival  int
	spec     serve.RequestSpec // AccessStation in global ids
	spanning []int
	running  *sim.RunningSnapshot // stations in global ids; nil if pending
}

// composeRestore merges the manifest's per-shard snapshots into one
// global request set and re-partitions it onto the CURRENT shard
// layout, which may differ from the one that wrote the manifest.
// Pending requests re-route through the normal candidate rule; running
// streams must land on a shard owning every station they hold shares on
// — a stream split by the new partition is a loud error, not a silent
// drop. The learner state is cloned into every new shard (each shard's
// bandit continues from the global reward history) and lifetime totals
// accumulate onto shard 0 so cluster-wide counters survive resharding.
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
		ext2pair := make(map[uint64]manifestIDPair, len(sh.IDs))
		for _, p := range sh.IDs {
			ext2pair[p.Ext] = p
		}
		runOf := make(map[uint64]sim.RunningSnapshot, len(ck.Running))
		for _, rs := range ck.Running {
			runOf[uint64(rs.Request)] = rs
		}
		for _, cr := range ck.Requests {
			pair, ok := ext2pair[cr.ExternalID]
			if !ok {
				return nil, fmt.Errorf("shard %d request ext=%d missing from manifest id table", sh.Index, cr.ExternalID)
			}
			if cr.Spec.AccessStation < 0 || cr.Spec.AccessStation >= len(sh.Stations) {
				return nil, fmt.Errorf("shard %d request ext=%d access station %d outside its partition", sh.Index, cr.ExternalID, cr.Spec.AccessStation)
			}
			gr := globalRequest{
				global:   pair.Global,
				arrival:  cr.ArrivalSlot,
				spec:     cr.Spec,
				spanning: pair.Spanning,
			}
			gr.spec.AccessStation = sh.Stations[cr.Spec.AccessStation]
			if cr.Running {
				rs, ok := runOf[cr.ExternalID]
				if !ok {
					return nil, fmt.Errorf("shard %d request ext=%d marked running but has no stream snapshot", sh.Index, cr.ExternalID)
				}
				grs, err := globalizeStream(rs, sh.Stations)
				if err != nil {
					return nil, fmt.Errorf("shard %d request ext=%d: %w", sh.Index, cr.ExternalID, err)
				}
				gr.running = grs
			}
			merged = append(merged, gr)
		}
	}
	sort.Slice(merged, func(a, b int) bool { return merged[a].global < merged[b].global })

	out := make([]*serve.Checkpoint, len(c.parts))
	for k := range out {
		out[k] = &serve.Checkpoint{
			Version:   serve.CheckpointVersion,
			Slot:      man.Slot,
			Scheduler: man.Scheduler,
		}
	}
	nextExt := make([]uint64, len(c.parts))
	for _, gr := range merged {
		var shard int
		if gr.running != nil {
			s, err := c.streamOwner(gr.running)
			if err != nil {
				return nil, fmt.Errorf("running stream for global id %d: %w", gr.global, err)
			}
			shard = s
		} else {
			s, spanCands, err := c.router.route(gr.spec)
			if err != nil {
				return nil, fmt.Errorf("re-routing global id %d: %w", gr.global, err)
			}
			shard, gr.spanning = s, spanCands
		}
		ext := nextExt[shard]
		nextExt[shard]++
		spec := gr.spec
		spec.AccessStation = c.localIndex(shard, spec.AccessStation, gr.spanning)
		cr := serve.CheckpointRequest{
			ExternalID:  ext,
			ArrivalSlot: gr.arrival,
			Spec:        spec,
		}
		if gr.running != nil {
			cr.Running = true
			ls, err := localizeStream(gr.running, shard, c.owner, c.parts)
			if err != nil {
				return nil, fmt.Errorf("running stream for global id %d: %w", gr.global, err)
			}
			ls.Request = int(ext)
			out[shard].Running = append(out[shard].Running, *ls)
		}
		out[shard].Requests = append(out[shard].Requests, cr)
		c.router.bindAt(gr.global, shard, ext, gr.spanning)
	}
	for k := range out {
		out[k].NextExternalID = nextExt[k]
		out[k].Bandit = banditSnap.Clone()
	}
	addTotals(&out[0].Totals, totals)
	c.router.setNextGlobal(man.NextGlobalID)
	return out, nil
}

// localIndex maps a global station onto a shard-local one, applying the
// same nearest-owned-candidate stand-in rule as live submission.
func (c *Cluster) localIndex(shard, globalStation int, spanCands []int) int {
	part := c.parts[shard]
	for l, g := range part {
		if g == globalStation {
			return l
		}
	}
	var owned []int
	for _, st := range spanCands {
		if c.owner[st] == shard {
			owned = append(owned, st)
		}
	}
	if len(owned) == 0 {
		owned = part
	}
	nearest, _ := c.net.NearestStation(globalStation, owned)
	for l, g := range part {
		if g == nearest {
			return l
		}
	}
	return 0
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

// globalizeStream lifts a shard-local running snapshot into global
// station ids.
func globalizeStream(rs sim.RunningSnapshot, stations []int) (*sim.RunningSnapshot, error) {
	mapSt := func(l int) (int, error) {
		if l < 0 || l >= len(stations) {
			return 0, fmt.Errorf("stream station %d outside its partition", l)
		}
		return stations[l], nil
	}
	out := rs
	out.Shares = make(map[int]float64, len(rs.Shares))
	for l, v := range rs.Shares {
		g, err := mapSt(l)
		if err != nil {
			return nil, err
		}
		out.Shares[g] = v
	}
	if rs.ExpShares != nil {
		out.ExpShares = make(map[int]float64, len(rs.ExpShares))
		for l, v := range rs.ExpShares {
			g, err := mapSt(l)
			if err != nil {
				return nil, err
			}
			out.ExpShares[g] = v
		}
	}
	g, err := mapSt(rs.ProcStation)
	if err != nil {
		return nil, err
	}
	out.ProcStation = g
	return &out, nil
}

// localizeStream maps a global-station stream onto one new shard's
// local ids; streamOwner already proved every station lands there.
func localizeStream(rs *sim.RunningSnapshot, shard int, owner []int, parts [][]int) (*sim.RunningSnapshot, error) {
	localOf := make(map[int]int, len(parts[shard]))
	for l, g := range parts[shard] {
		localOf[g] = l
	}
	mapSt := func(g int) (int, error) {
		l, ok := localOf[g]
		if !ok {
			return 0, fmt.Errorf("station %d not owned by shard %d", g, shard)
		}
		return l, nil
	}
	out := *rs
	out.Shares = make(map[int]float64, len(rs.Shares))
	for g, v := range rs.Shares {
		l, err := mapSt(g)
		if err != nil {
			return nil, err
		}
		out.Shares[l] = v
	}
	if rs.ExpShares != nil {
		out.ExpShares = make(map[int]float64, len(rs.ExpShares))
		for g, v := range rs.ExpShares {
			l, err := mapSt(g)
			if err != nil {
				return nil, err
			}
			out.ExpShares[l] = v
		}
	}
	l, err := mapSt(rs.ProcStation)
	if err != nil {
		return nil, err
	}
	out.ProcStation = l
	return &out, nil
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
