package core

import (
	"sync/atomic"

	"mecoffload/internal/lp"
)

// warmKey addresses one stored basis: the rounding-pass index plus the
// shard the basis belongs to. A shard is one connected component of the
// request-station candidate graph, identified by its smallest station
// index — the only label that is stable while arrivals and departures
// reshape the component around it.
type warmKey struct {
	pass  int
	shard int
}

// WarmCache carries optimal LP bases across structurally similar solves:
// repetitions of the same experiment grid cell, or successive rounding
// passes of Appro/Heu. One basis is kept per (rounding pass, shard): pass
// k of one run is structurally closest to pass k of the next (same slot
// grid, similar residual shape), and the per-component decomposition
// solves each shard independently, so each component warm-starts from its
// own shard's basis.
//
// The online scheduler does not use one. Its R_t turns over almost
// completely from slot to slot, so the previous slot's basis describes
// requests that are gone: measured on the benchmark's churn_mesh slot
// LPs, a warm seed saved under one pivot per solve and cost more time
// than it saved, names and basis replay included.
//
// A nil *WarmCache is valid and disables warm starting. A non-nil cache
// belongs to one goroutine; only the hit/miss counters are atomic, so
// another may read them.
type WarmCache struct {
	hits   atomic.Uint64
	misses atomic.Uint64

	bases map[warmKey]*lp.Basis

	// names interns LP row/column names across runs so each rebuild does
	// not re-allocate thousands of identical strings.
	names nameCache
}

// NewWarmCache returns an empty cache.
func NewWarmCache() *WarmCache {
	return &WarmCache{bases: make(map[warmKey]*lp.Basis)}
}

// Stats returns how many basis lookups found a seed basis (hits) versus
// fell back to a cold solve (misses). The serving daemon exports the
// ratio as its LP warm-start hit rate.
func (c *WarmCache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// get returns the stored basis for a (rounding pass, shard) pair, nil
// when absent. ScheduleBatch looks up exactly: a component re-seeds from
// its own previous basis or cold. The offline rounding passes set
// nearest: an absent key then falls back to the same pass's entry with
// the nearest shard key. Components are labeled by their smallest
// station, so the label drifts when that station saturates out of the
// candidate graph; the nearest stored basis still covers mostly the same
// rows and columns, and the name-based resolution simply drops whatever
// no longer applies. The fallback choice is deterministic (smallest
// distance, then smallest shard) given the stored keys, which is why
// solveDecomposed resolves all of a pass's seeds before it stores the
// pass's first basis.
func (c *WarmCache) get(pass, shard int, nearest bool) *lp.Basis {
	if c == nil {
		return nil
	}
	b := c.bases[warmKey{pass: pass, shard: shard}]
	if b == nil && nearest {
		bestDist, bestShard := -1, -1
		for k, cand := range c.bases {
			if k.pass != pass {
				continue
			}
			d := k.shard - shard
			if d < 0 {
				d = -d
			}
			if bestDist < 0 || d < bestDist || (d == bestDist && k.shard < bestShard) {
				b = cand
				bestDist, bestShard = d, k.shard
			}
		}
	}
	if b == nil {
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
	return b
}

// put stores the optimal basis of a (rounding pass, shard) pair,
// replacing any previous one (latest wins: the most recent solve is
// structurally closest to the next).
func (c *WarmCache) put(pass, shard int, b *lp.Basis) {
	if c == nil || b == nil {
		return
	}
	c.bases[warmKey{pass: pass, shard: shard}] = b
}

// nameTable returns the cache's interned-name table (nil receiver safe:
// without a cache nothing is warm started, so nothing is named).
func (c *WarmCache) nameTable() *nameCache {
	if c == nil {
		return nil
	}
	return &c.names
}
