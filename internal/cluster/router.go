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
// which shard holds it now, for status lookups.
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

	// Routing counters (read via RouterStats).
	fastPath    atomic.Uint64
	spanning    atomic.Uint64
	noCandidate atomic.Uint64
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
// engine). The candidate list, in global station ids, is built in buf's
// storage and returned with it, so a caller that recycles it routes
// without allocating.
func (rt *router) route(spec serve.RequestSpec, buf []int) (shard int, cands []int, spanning bool, err error) {
	cands, err = serve.SpecCandidates(rt.net, spec, buf)
	if err != nil {
		return 0, nil, false, err
	}
	if len(cands) == 0 {
		rt.noCandidate.Add(1)
		return rt.owner[spec.AccessStation], cands, false, nil
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
			return home, cands, true, nil
		}
	}
	rt.fastPath.Add(1)
	return home, cands, false, nil
}

// routed is one request as the router knows it: its id and the shard
// holding it now.
type routed struct {
	id    uint64
	shard int
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

// move records that request id now sits on shard.
func (rt *router) move(id uint64, shard int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if id >= rt.base && id-rt.base < uint64(len(rt.shards)) {
		rt.shards[id-rt.base] = int32(shard)
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
