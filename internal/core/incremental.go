package core

import (
	"math"
	"math/bits"
	"sync/atomic"

	"mecoffload/internal/mec"
)

// IncStats counts what decision reuse did since the cache was created.
// CleanHits + DirtySolves is the number of components that reached the
// look-up. A component the pass's rounding draws rule out — none of its
// requests drew below 1/denominator, so it could round nothing — is never
// looked up and counts as neither.
type IncStats struct {
	// CleanHits is the number of components whose signature matched a
	// cached decision, which was replayed without touching the LP.
	CleanHits uint64
	// DirtySolves is the number of components that had to be solved: their
	// signature missed.
	DirtySolves uint64
	// FastPath and FastFallback are always zero: bench/trace.go, their
	// sole reader, still compiles against them.
	FastPath, FastFallback uint64
}

// incEntry is one key's slot in the decision cache: the hash of the last
// signature solved under the key, and the filed decision — the exact LP
// input signature it is valid for, the solved variables in *position
// space* (slotVar.req is the request's position within the component's
// request list, not a global index), the fractional solution, and its
// objective. sig is nil until a signature is met twice in a row.
// Position space makes the filed decision independent of the global
// request ids of the slot that produced it: a later slot whose component
// has the same shape reuses it even though every request id changed.
type incEntry struct {
	hash uint64
	sig  []uint64
	vars []slotVar
	y    []float64
	obj  float64
}

// IncCache is the online scheduler's decision cache. Per (rounding pass,
// component shard) it keeps the hash of the last signature solved there
// and, once a signature has been solved twice in a row, a filed copy of
// that signature with its solution. A component is *clean* when its
// signature this slot is bit-identical to the filed one: every quantity
// the LP is built from (each station's slot grid, residual capacities,
// share caps, candidate stations, demand distributions) is unchanged, so
// the LP itself is bit-identical. A cold solve is a pure function of its
// LP (lp's TestColdSolveIsPure), and the slot path solves cold, so the
// filed solution IS the solution a re-solve would compute.
//
// The hash only decides what is filed: a signature met once costs one
// hash and no copy, the second sighting in a row files it, and from the
// third sighting on the component replays. Replay compares the signature
// word for word against the filed copy, so a hash collision can cost a
// solve but never change a decision. A different signature passing
// through only moves the hash: the filed copy stays, so a one-slot blip
// does not evict a steady component, and a key holds at most one copy.
// Everything else — an arrival, a departure, a realized rate that moved
// the residual capacity, a C^th change that reshaped the admissible set —
// flips some word of the signature and marks the component dirty.
// A component the rounding draws rule out is neither: it is not looked
// up, and its entry stays as it was until a later pass that can round
// the component compares it.
//
// The entry map is only touched by the scheduling goroutine, so it needs
// no lock; the counters are atomic because /metrics reads them from
// another goroutine.
type IncCache struct {
	cleanHits   atomic.Uint64
	dirtySolves atomic.Uint64

	entries map[warmKey]*incEntry
	// solved, when set, sees every solve offered to put before the filing
	// rule looks at it: a test reads each pass's signatures there.
	solved func(pass, shard int, sig []uint64, vars []slotVar, compReqs []int)
}

// NewIncCache returns an empty decision cache.
func NewIncCache() *IncCache {
	return &IncCache{entries: make(map[warmKey]*incEntry)}
}

// Stats returns the cache's clean/dirty counters. Nil-safe.
func (c *IncCache) Stats() IncStats {
	if c == nil {
		return IncStats{}
	}
	return IncStats{CleanHits: c.cleanHits.Load(), DirtySolves: c.dirtySolves.Load()}
}

// get returns the entry for a (pass, shard) pair, nil when absent.
func (c *IncCache) get(pass, shard int) *incEntry {
	return c.entries[warmKey{pass: pass, shard: shard}]
}

// put offers a freshly solved component to the cache. When the
// signature's hash equals the one the key last saw, the signature is
// copied and filed with its solution: vars are converted from global
// request indices to positions within compReqs (which lists the
// component's requests in the order the LP was built over). Otherwise
// only the hash is kept, and any copy filed earlier stays.
func (c *IncCache) put(pass, shard int, sig []uint64, vars []slotVar, y []float64, obj float64, compReqs []int) {
	if c.solved != nil {
		c.solved(pass, shard, sig, vars, compReqs)
	}
	k := warmKey{pass: pass, shard: shard}
	h := sigHash(sig)
	e := c.entries[k]
	if e == nil {
		c.entries[k] = &incEntry{hash: h}
		return
	}
	if e.hash != h {
		e.hash = h
		return
	}
	e.sig = append(e.sig[:0], sig...)
	e.vars, e.y = e.vars[:0], e.y[:0]
	pos := 0
	for _, sv := range vars {
		// vars are grouped by request in compReqs order, so the position
		// cursor only ever advances.
		for compReqs[pos] != sv.req {
			pos++
		}
		e.vars = append(e.vars, slotVar{req: pos, station: sv.station, slot: sv.slot, er: sv.er})
	}
	e.y = append(e.y, y...)
	e.obj = obj
}

// sigHash mixes a signature's words into 64 bits: xxHash64's round and
// merge step per word, then its final avalanche.
func sigHash(sig []uint64) uint64 {
	const p1, p2, p3, p4 = 0x9e3779b185ebca87, 0xc2b2ae3d27d4eb4f, 0x165667b19e3779f9, 0x85ebca77c2b2ae63
	h := p3 ^ uint64(len(sig))
	for _, w := range sig {
		h ^= bits.RotateLeft64(w*p2, 31) * p1
		h = bits.RotateLeft64(h, 27)*p1 + p4
	}
	h ^= h >> 33
	h *= p2
	h ^= h >> 29
	h *= p3
	return h ^ h>>32
}

// appendCompSig appends one component's exact LP input vector to buf:
// the slot length, then per station its index, slot size g_i (the pass's
// grid on that station), residual capacity, and share-cap truncation,
// then per request its candidate station list and its full (rate, prob,
// reward) distribution, all as raw float bits.
// Two slots with equal signatures build bit-identical positional LPs:
// every coefficient of the objective (Eq. (8)'s ER via RewardMassBelow),
// of constraint (10) (ExpectedTruncatedRate of min(l*C_l/C_unit,
// shareCap)), and every row/column of the problem is a pure function of
// these words plus network constants (C_unit, topology) that cannot
// change within a cache's lifetime. Waiting times and deadlines enter
// the LP only through delay feasibility, which the candidate lists
// capture. A hash of these words (sigHash) only decides what the cache
// files; replay compares them word for word, so a clean verdict can never
// be a collision.
func appendCompSig(buf []uint64, reqs []*mec.Request, opts lpOptions, comp component, sc *slotScratch) []uint64 {
	buf = append(buf,
		math.Float64bits(opts.slotLengthMS),
		uint64(len(comp.stations)))
	for _, i := range comp.stations {
		shareBits := uint64(0)
		if opts.shareCapFor != nil {
			shareBits = math.Float64bits(opts.shareCapFor(i))
		}
		buf = append(buf, uint64(i), math.Float64bits(opts.slotOf(i)), math.Float64bits(opts.capOf(i)), shareBits)
	}
	buf = append(buf, uint64(len(comp.reqs)))
	for _, j := range comp.reqs {
		cands, _ := sc.cands.of(j)
		buf = append(buf, uint64(len(cands)))
		for _, i := range cands {
			buf = append(buf, uint64(i))
		}
		d := reqs[j].Dist
		nOut := d.Len()
		buf = append(buf, uint64(nOut))
		for t := 0; t < nOut; t++ {
			o := d.OutcomeAt(t)
			buf = append(buf,
				math.Float64bits(o.Rate),
				math.Float64bits(o.Prob),
				math.Float64bits(o.Reward))
		}
	}
	return buf
}
