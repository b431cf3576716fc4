package cluster

import (
	"slices"
	"sync"

	"mecoffload/internal/mec"
	"mecoffload/internal/serve"
)

// location is one routed request's current position in the cluster.
type location struct {
	shard int
	ext   uint64
	// cands are the request's global candidate stations, kept only when
	// they span more than one shard: what the migration sweep prices and
	// the manifest records for a live spanning request.
	cands []int
}

// router owns the global id space and the request→shard map. Routing is
// pure (partition + candidate rule); the table exists so status lookups
// and migrations can find a request after the fact.
type router struct {
	net    *mec.Network
	owner  []int // global station -> shard
	slotMS float64

	mu         sync.RWMutex
	nextGlobal uint64
	table      map[uint64]*location
	ext2global []map[uint64]uint64 // per shard: shard ext -> global id
	order      []uint64            // bind order, for bounded eviction
	maxRouted  int
	// span is the migration sweep's worklist: the global ids of spanning
	// requests that may still be pending, ascending. insertLocked appends
	// (ids are handed out, and restored, in ascending order, so no sort is
	// ever needed) and the sweep prunes an id the first time it finds the
	// request can never be pending again, so the list tracks live
	// requests, not routing history. Every id on it is in table.
	span []uint64

	// Routing counters (mu-guarded; read via RouterStats).
	fastPath    uint64
	spanning    uint64
	noCandidate uint64

	// candBufs pools candidate-list scratch across concurrent route
	// calls: the list is computed, inspected, and (unless it spans
	// shards, the rare case that copies) discarded, so the fast path
	// never touches the allocator.
	candBufs sync.Pool
}

func newRouter(net *mec.Network, owner []int, slotMS float64, shards, maxRouted int) *router {
	if maxRouted <= 0 {
		maxRouted = 1 << 20
	}
	rt := &router{
		net:        net,
		owner:      owner,
		slotMS:     slotMS,
		table:      make(map[uint64]*location),
		ext2global: make([]map[uint64]uint64, shards),
		maxRouted:  maxRouted,
	}
	for k := range rt.ext2global {
		rt.ext2global[k] = make(map[uint64]uint64)
	}
	return rt
}

// route decides the owning shard for a spec: the shard owning every
// candidate station (fast path), the shard owning the smallest
// candidate station when candidates span partitions (the deterministic
// home-shard rule), or the access station's owner when partitioning
// leaves no candidate at all (the request will expire there, exactly as
// it would in a single engine). The returned candidate list is in
// global station ids, nil unless it spans shards.
func (rt *router) route(spec serve.RequestSpec) (shard int, spanCands []int, err error) {
	bufp, _ := rt.candBufs.Get().(*[]int)
	if bufp == nil {
		bufp = new([]int)
	}
	cands, err := serve.SpecCandidates(rt.net, spec, (*bufp)[:0])
	*bufp = cands[:0:cap(cands)]
	defer rt.candBufs.Put(bufp)
	if err != nil {
		return 0, nil, err
	}
	if len(cands) == 0 {
		rt.mu.Lock()
		rt.noCandidate++
		rt.mu.Unlock()
		return rt.owner[spec.AccessStation], nil, nil
	}
	home := rt.owner[cands[0]]
	multi := false
	for _, i := range cands[1:] {
		if rt.owner[i] != home {
			multi = true
			break
		}
	}
	rt.mu.Lock()
	if multi {
		rt.spanning++
	} else {
		rt.fastPath++
	}
	rt.mu.Unlock()
	if !multi {
		return home, nil, nil
	}
	// Spanning candidates are retained in the routing table; copy them
	// out of the pooled scratch.
	return home, append([]int(nil), cands...), nil
}

// bind allocates the next global id for a freshly accepted request and
// records its location. Global ids are dense submission ordinals, which
// makes cluster decision dumps directly comparable across shard counts.
func (rt *router) bind(shard int, ext uint64, spanCands []int) uint64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	g := rt.nextGlobal
	rt.nextGlobal++
	rt.insertLocked(g, &location{shard: shard, ext: ext, cands: spanCands})
	return g
}

// bindBatch is bind for a whole accepted batch: ids are allocated in slice
// order under one lock acquisition. The table keeps pointers into locs, so
// a batch costs the router one allocation of rows (the caller's) and one of
// ids; the rows are released together, once eviction has passed the last
// of them.
func (rt *router) bindBatch(locs []location) []uint64 {
	ids := make([]uint64, len(locs))
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for i := range locs {
		ids[i] = rt.nextGlobal
		rt.nextGlobal++
		rt.insertLocked(ids[i], &locs[i])
	}
	return ids
}

// bindAt re-registers a known global id during a manifest restore.
// composeRestore calls it in ascending id order, before any bind, which
// is what keeps order and span ascending.
func (rt *router) bindAt(g uint64, shard int, ext uint64, spanCands []int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if g >= rt.nextGlobal {
		rt.nextGlobal = g + 1
	}
	rt.insertLocked(g, &location{shard: shard, ext: ext, cands: spanCands})
}

func (rt *router) insertLocked(g uint64, loc *location) {
	rt.table[g] = loc
	rt.ext2global[loc.shard][loc.ext] = g
	rt.order = append(rt.order, g)
	if len(loc.cands) > 0 {
		rt.span = append(rt.span, g)
	}
	for len(rt.table) > rt.maxRouted && len(rt.order) > 0 {
		old := rt.order[0]
		rt.order = rt.order[1:]
		if loc, ok := rt.table[old]; ok {
			delete(rt.ext2global[loc.shard], loc.ext)
			delete(rt.table, old)
		}
		// The evicted id is the table's smallest, so on the ascending
		// worklist it can only be the head.
		if len(rt.span) > 0 && rt.span[0] == old {
			rt.span = rt.span[1:]
		}
	}
}

// rebind moves a migrated request to its new shard and local id. With
// keepSpanning it stays on the sweep's worklist under the new location;
// without, it stops being a migration candidate.
func (rt *router) rebind(g uint64, shard int, ext uint64, keepSpanning bool) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	loc, ok := rt.table[g]
	if !ok {
		return false
	}
	delete(rt.ext2global[loc.shard], loc.ext)
	loc.shard, loc.ext = shard, ext
	if !keepSpanning && loc.cands != nil {
		loc.cands = nil
		if i, found := slices.BinarySearch(rt.span, g); found {
			rt.span = slices.Delete(rt.span, i, i+1)
		}
	}
	rt.ext2global[shard][ext] = g
	return true
}

// lookup resolves a global id to its current shard and local id.
func (rt *router) lookup(g uint64) (shard int, ext uint64, ok bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	loc, ok := rt.table[g]
	if !ok {
		return 0, 0, false
	}
	return loc.shard, loc.ext, true
}

// globalOf resolves a shard-local id back to its global id.
func (rt *router) globalOf(shard int, ext uint64) (uint64, bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	g, ok := rt.ext2global[shard][ext]
	return g, ok
}

// appendGlobals resolves a batch of one shard's local ids under a single
// read-lock acquisition, appending the hits to dst. The tick loop's
// reward aggregation uses it instead of a per-id globalOf round-trip.
func (rt *router) appendGlobals(dst []uint64, shard int, exts []uint64) []uint64 {
	rt.mu.RLock()
	m := rt.ext2global[shard]
	for _, ext := range exts {
		if g, ok := m[ext]; ok {
			dst = append(dst, g)
		}
	}
	rt.mu.RUnlock()
	return dst
}

// spanCandidate is one migration-sweep worklist entry.
type spanCandidate struct {
	global uint64
	shard  int
	ext    uint64
	cands  []int
}

// spanningRequests appends the sweep's worklist to dst, in ascending
// global-id order: every spanning request not yet pruned, at its current
// location. The cost is the length of the worklist, not of the table.
func (rt *router) spanningRequests(dst []spanCandidate) []spanCandidate {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	for _, g := range rt.span {
		loc := rt.table[g]
		dst = append(dst, spanCandidate{global: g, shard: loc.shard, ext: loc.ext, cands: loc.cands})
	}
	return dst
}

// pruneSpanning drops the given ids (ascending, as the sweep met them)
// from the worklist. Ids bound since the sweep's snapshot sit behind all
// of them and stay.
func (rt *router) pruneSpanning(done []uint64) {
	if len(done) == 0 {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	keep := rt.span[:0]
	for _, g := range rt.span {
		// An id evicted from the head since the snapshot is simply absent.
		for len(done) > 0 && done[0] < g {
			done = done[1:]
		}
		if len(done) > 0 && done[0] == g {
			continue
		}
		keep = append(keep, g)
	}
	rt.span = keep
}

// RouterStats is the routing counter snapshot exposed on /metrics.
type RouterStats struct {
	FastPath    uint64
	Spanning    uint64
	NoCandidate uint64
	Routed      uint64
}

func (rt *router) stats() RouterStats {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return RouterStats{
		FastPath:    rt.fastPath,
		Spanning:    rt.spanning,
		NoCandidate: rt.noCandidate,
		Routed:      rt.nextGlobal,
	}
}
