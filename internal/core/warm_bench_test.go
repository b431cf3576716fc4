package core

import (
	"sync"
	"testing"

	"mecoffload/internal/lp"
)

// legacyWarmCache reproduces the seed's warm cache for benchmarking: one
// global mutex serializing every get and put (including the hit/miss
// counters). It is the contention baseline the sharded RWMutex +
// atomic-pointer WarmCache replaces.
type legacyWarmCache struct {
	mu    sync.Mutex
	slots map[warmKey]*lp.Basis
}

func (c *legacyWarmCache) get(pass, shard int) *lp.Basis {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.slots[warmKey{pass: pass, shard: shard}]
}

func (c *legacyWarmCache) put(pass, shard int, b *lp.Basis) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.slots[warmKey{pass: pass, shard: shard}] = b
}

// warmBenchShards matches the component count of a typical per-slot
// decomposition over the paper's 20-station topology.
const warmBenchShards = 8

// BenchmarkWarmCacheSerial pins the single-goroutine cost of the
// concurrent-safe cache: the per-shard atomic pointers must not regress
// the GOMAXPROCS=1 hot path the sequential solver runs on. Compare with
// BenchmarkWarmCacheSerialLegacy — the sharded design must stay at least
// on par with the plain-mutex seed.
func BenchmarkWarmCacheSerial(b *testing.B) {
	c := NewWarmCache()
	basis := &lp.Basis{}
	for s := 0; s < warmBenchShards; s++ {
		c.put(0, s, basis)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := i % warmBenchShards
		if c.get(0, s, false) == nil {
			b.Fatal("miss on warmed shard")
		}
		c.put(0, s, basis)
	}
}

// BenchmarkWarmCacheSerialLegacy is the seed's global-mutex baseline
// under the identical access pattern.
func BenchmarkWarmCacheSerialLegacy(b *testing.B) {
	c := &legacyWarmCache{slots: map[warmKey]*lp.Basis{}}
	basis := &lp.Basis{}
	for s := 0; s < warmBenchShards; s++ {
		c.put(0, s, basis)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := i % warmBenchShards
		if c.get(0, s) == nil {
			b.Fatal("miss on warmed shard")
		}
		c.put(0, s, basis)
	}
}

// BenchmarkWarmCacheParallel measures the sharded cache under the solver
// worker pool's access pattern: every worker hammering its own shard.
// With per-shard atomic pointers the workers only share a read lock on
// the key map, so throughput should scale with cores instead of
// serializing on one mutex as the legacy variant does
// (BenchmarkWarmCacheParallelLegacy).
func BenchmarkWarmCacheParallel(b *testing.B) {
	c := NewWarmCache()
	basis := &lp.Basis{}
	for s := 0; s < warmBenchShards; s++ {
		c.put(0, s, basis)
	}
	var next int64
	var mu sync.Mutex
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		mu.Lock()
		shard := int(next) % warmBenchShards
		next++
		mu.Unlock()
		for pb.Next() {
			if c.get(0, shard, false) == nil {
				b.Fatal("miss on warmed shard")
			}
			c.put(0, shard, basis)
		}
	})
}

// BenchmarkWarmCacheParallelLegacy is the contention baseline for the
// parallel access pattern.
func BenchmarkWarmCacheParallelLegacy(b *testing.B) {
	c := &legacyWarmCache{slots: map[warmKey]*lp.Basis{}}
	basis := &lp.Basis{}
	for s := 0; s < warmBenchShards; s++ {
		c.put(0, s, basis)
	}
	var next int64
	var mu sync.Mutex
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		mu.Lock()
		shard := int(next) % warmBenchShards
		next++
		mu.Unlock()
		for pb.Next() {
			if c.get(0, shard) == nil {
				b.Fatal("miss on warmed shard")
			}
			c.put(0, shard, basis)
		}
	})
}
