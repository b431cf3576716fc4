package cluster

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"mecoffload/internal/mec"
	"mecoffload/internal/serve"
)

// maxRouted is how many of the newest ids the router can place on a shard
// (serve's maxRecords is the engines' bound on what they remember of them).
const maxRouted = 1 << 20

// unknownShard marks an id in the router's window that a restore did not
// bring back.
const unknownShard = -1

// router owns the id space and routing. Routing is pure (partition +
// candidate rule). The router hands out every request's id, which the
// engines then use as their own, so all it has to remember of a request is
// which shard holds it now — for status lookups — and, while a spanning
// request may still be pending, what the migration sweep needs to move it.
type router struct {
	net    *mec.Network
	owner  []int // global station -> shard
	window int   // maxRouted; smaller only in tests

	mu         sync.RWMutex
	nextGlobal uint64
	// shards[id-base] is the shard holding request id. Ids are handed out,
	// and restored, in ascending order, so the window is a slice that grows
	// at its young end and drops from its old one once it is `window` long.
	// An id below base answers Status as unknown and is otherwise
	// unaffected: its engine still holds, schedules and checkpoints it.
	base   uint64
	shards []int32
	// span is the migration sweep's worklist: the spanning requests that
	// may still be pending, ascending by id, each with its current shard and
	// its own candidate list. The sweep prunes an entry the first time it
	// finds the request can never be pending again, which is also what
	// frees the candidates, so the list tracks live requests, not routing
	// history. It is independent of the window.
	span []routed

	// Routing counters (read via RouterStats).
	fastPath    atomic.Uint64
	spanning    atomic.Uint64
	noCandidate atomic.Uint64

	// candBufs pools candidate-list scratch across concurrent route
	// calls: the list is computed, inspected, and (unless it spans
	// shards, the rare case that copies) discarded, so the fast path
	// never touches the allocator.
	candBufs sync.Pool
}

func newRouter(net *mec.Network, owner []int, window int) *router {
	return &router{net: net, owner: owner, window: window}
}

// route decides the owning shard for a spec: the shard owning every
// candidate station (fast path); when candidates span partitions, the
// access station's owner if it owns one of them, else the owner of the
// smallest candidate station (the deterministic home-shard rule); or the
// access station's owner when partitioning leaves no candidate at all
// (the request will expire there, exactly as it would in a single
// engine). The returned candidate list is in global station ids, nil
// unless it spans shards.
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
		rt.noCandidate.Add(1)
		return rt.owner[spec.AccessStation], nil, nil
	}
	home := rt.owner[cands[0]]
	for _, i := range cands[1:] {
		if rt.owner[i] != home {
			rt.spanning.Add(1)
			// Home it where it arrived when that shard can serve it: there
			// it keeps its true access station and the delays from it.
			access := rt.owner[spec.AccessStation]
			if slices.ContainsFunc(cands, func(st int) bool { return rt.owner[st] == access }) {
				home = access
			}
			// The sweep's worklist keeps a spanning request's candidates;
			// copy them out of the pooled scratch.
			return home, append([]int(nil), cands...), nil
		}
	}
	rt.fastPath.Add(1)
	return home, nil, nil
}

// routed is one request as the router knows it: its id, the shard holding
// it now, and — for a spanning request — its global candidate stations.
type routed struct {
	id    uint64
	shard int
	cands []int
}

// reserve numbers reqs with the next ids, in slice order under one lock
// acquisition, and places each on its shard. Ids are dense submission
// ordinals, which makes cluster decision dumps directly comparable across
// shard counts. A reserved id whose engine then refuses the request stays a
// hole: placed, and unknown to that shard.
func (rt *router) reserve(reqs []routed) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for i := range reqs {
		reqs[i].id = rt.nextGlobal
		rt.nextGlobal++
		rt.shards = append(rt.shards, int32(reqs[i].shard))
	}
	if over := len(rt.shards) - rt.window; over > 0 {
		rt.shards = rt.shards[over:]
		rt.base += uint64(over)
	}
}

func (sc routed) compareID(id uint64) int { return cmp.Compare(sc.id, id) }

// list puts spanning requests their engines accepted on the sweep's
// worklist. entries are one Submit's, ascending; they go in behind every
// id reserved earlier, which is the end of the list unless a concurrent
// Submit that reserved later has listed first.
func (rt *router) list(entries []routed) {
	if len(entries) == 0 {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	i, _ := slices.BinarySearchFunc(rt.span, entries[0].id, routed.compareID)
	rt.span = slices.Insert(rt.span, i, entries...)
}

// move records that request id now sits on shard, and whether it remains a
// migration candidate: if not, it leaves the sweep's worklist.
func (rt *router) move(id uint64, shard int, listed bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if id >= rt.base && id-rt.base < uint64(len(rt.shards)) {
		rt.shards[id-rt.base] = int32(shard)
	}
	if i, found := slices.BinarySearchFunc(rt.span, id, routed.compareID); found {
		if listed {
			rt.span[i].shard = shard
		} else {
			rt.span = slices.Delete(rt.span, i, i+1)
		}
	}
}

// lookup resolves an id to the shard holding it now.
func (rt *router) lookup(id uint64) (shard int, ok bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if id < rt.base || id-rt.base >= uint64(len(rt.shards)) {
		return 0, false
	}
	shard = int(rt.shards[id-rt.base])
	return shard, shard != unknownShard
}

// spanningRequests appends the sweep's worklist to dst, in ascending id
// order. The cost is the length of the worklist, whatever was routed
// before.
func (rt *router) spanningRequests(dst []routed) []routed {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return append(dst, rt.span...)
}

// pruneSpanning drops the given ids (ascending, as the sweep met them)
// from the worklist. Ids listed since the sweep's snapshot stay.
func (rt *router) pruneSpanning(done []uint64) {
	if len(done) == 0 {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	keep := rt.span[:0]
	for _, sc := range rt.span {
		for len(done) > 0 && done[0] < sc.id {
			done = done[1:]
		}
		if len(done) > 0 && done[0] == sc.id {
			continue
		}
		keep = append(keep, sc)
	}
	clear(rt.span[len(keep):]) // let go of the pruned candidate lists
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
		FastPath:    rt.fastPath.Load(),
		Spanning:    rt.spanning.Load(),
		NoCandidate: rt.noCandidate.Load(),
		Routed:      rt.nextGlobal,
	}
}
