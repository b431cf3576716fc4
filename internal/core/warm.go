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

// WarmCache carries optimal LP bases from one ScheduleBatch call to the
// next: one basis is kept per (rounding pass, shard), and each component
// warm-starts from its own shard's basis of the same pass, resolved by
// the positional row and column names the batch's LP carries.
//
// Nothing in the scheduler uses one. The online slot LPs turn over almost
// completely from slot to slot, so the previous slot's basis describes
// requests that are gone: measured on the benchmark's churn_mesh slot
// LPs, a warm seed saved under one pivot per solve and cost more time
// than it saved, names and basis replay included. Offline, chaining
// Appro/Heu bases across an experiment cell's repetitions lost to cold
// solves on every table but one (EXPERIMENTS.md, "Offline warm start").
// The type survives for the benchmark's layer probes.
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
// fell back to a cold solve (misses).
func (c *WarmCache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// get returns the stored basis for a (rounding pass, shard) pair, nil
// when absent: a component re-seeds from its own previous basis or cold.
func (c *WarmCache) get(pass, shard int) *lp.Basis {
	if c == nil {
		return nil
	}
	b := c.bases[warmKey{pass: pass, shard: shard}]
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
