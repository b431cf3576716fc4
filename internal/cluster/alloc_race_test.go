//go:build race

package cluster

// idleTickAllocBudget under the race detector: sync.Pool then drops a
// random quarter of Puts on purpose, so the engines' pooled reply channels
// are re-made on some ticks whatever the code does (0 or 1 allocations per
// tick, as AllocsPerRun rounds it). The budget still fails on per-tick
// garbage from both shards, and the normal build keeps the zero.
const idleTickAllocBudget = 1
