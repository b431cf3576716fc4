package core

import "mecoffload/internal/lp"

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
// warm-starts from its own shard's basis of the same pass, read by
// position — the columns and rows at the stored indices, where the new LP
// has them; entries past its end are dropped.
//
// Nothing in the scheduler uses one. The online slot LPs turn over almost
// completely from slot to slot, so the previous slot's basis describes
// requests that are gone: measured on the benchmark's churn_mesh slot
// LPs, a warm seed saved under one pivot per solve and cost more time
// than it saved, basis replay included. Offline, chaining
// Appro/Heu bases across an experiment cell's repetitions lost to cold
// solves on every table but one (EXPERIMENTS.md, "Offline warm start").
// The type survives for the benchmark's layer probes.
//
// A nil *WarmCache is valid and disables warm starting. A non-nil cache
// belongs to one goroutine.
type WarmCache struct {
	bases map[warmKey]*lp.Basis
}

// NewWarmCache returns an empty cache.
func NewWarmCache() *WarmCache {
	return &WarmCache{bases: make(map[warmKey]*lp.Basis)}
}

// get returns the stored basis for a (rounding pass, shard) pair, nil
// when absent: a component re-seeds from its own previous basis or cold.
func (c *WarmCache) get(pass, shard int) *lp.Basis {
	if c == nil {
		return nil
	}
	return c.bases[warmKey{pass: pass, shard: shard}]
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
