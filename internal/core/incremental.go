package core

import (
	"math"
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

// incEntry is one cached per-component decision: the exact LP input
// signature it is valid for, the solved variables in *position space*
// (slotVar.req is the request's position within the component's request
// list, not a global index), the fractional solution, and its objective.
// Position space makes the entry independent of the global request ids of
// the slot that produced it: a later slot whose component has the same
// shape reuses it even though every request id changed.
type incEntry struct {
	sig  []uint64
	vars []slotVar
	y    []float64
	obj  float64
}

// IncCache is the online scheduler's decision cache. It files one entry
// per (rounding pass, component shard) holding the component's full LP
// input signature and the solution of the solve that met it. A component
// is *clean* when its signature this slot is bit-identical to the cached
// one: every quantity the LP is built from (each station's slot grid,
// residual capacities, share caps, candidate stations, demand
// distributions) is unchanged, so the LP itself is bit-identical. A cold
// solve is a pure function of its LP (lp's TestColdSolveIsPure), and the
// slot path solves cold, so the cached solution IS the solution a
// re-solve would compute — from the second sighting on, a component
// replays its first solve.
// Everything else — an arrival, a departure, a realized rate that moved
// the residual capacity, a C^th change that reshaped the admissible set —
// flips some word of the signature and marks the component dirty.
// A component the rounding draws rule out is neither: it is not looked
// up, and its entry stays the exact solution of the entry's own
// signature until a later pass that can round the component compares it.
//
// The entry map is only touched by the scheduling goroutine, so it needs
// no lock; the counters are atomic because /metrics reads them from
// another goroutine.
type IncCache struct {
	cleanHits   atomic.Uint64
	dirtySolves atomic.Uint64

	entries map[warmKey]*incEntry
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

// put files a freshly solved component under its signature (copied) with
// its solution: vars are converted from global request indices to
// positions within compReqs (which lists the component's requests in the
// order the LP was built over).
func (c *IncCache) put(pass, shard int, sig []uint64, vars []slotVar, y []float64, obj float64, compReqs []int) {
	k := warmKey{pass: pass, shard: shard}
	e := c.entries[k]
	if e == nil {
		e = &incEntry{}
		c.entries[k] = e
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
// capture. No hashing: signatures are compared word for word, so a clean
// verdict can never be a collision.
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
