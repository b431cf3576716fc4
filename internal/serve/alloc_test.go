package serve

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestRunSlotIdleNoAllocs pins the daemon's steady-state hot path: an
// idle slot (no pending requests, no running streams) must execute
// without heap allocations and without touching the request table's
// lock. The test drives runSlot directly on an unstarted engine.
func TestRunSlotIdleNoAllocs(t *testing.T) {
	if oracleEnv() {
		t.Skip("MEC_ORACLE installs a per-slot checker that allocates")
	}
	e, err := New(Config{Net: testNetwork(t, 4), Rng: rand.New(rand.NewSource(42))})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() { e.runSlot() })
	if allocs != 0 {
		t.Fatalf("idle runSlot allocated %.1f times per slot, want 0", allocs)
	}
	if got := e.metrics.SlotErrors.Load(); got != 0 {
		t.Fatalf("idle slots recorded %d scheduler errors, want 0", got)
	}
}

// TestValidateSpecAllocatesNoSource: validating a line must not build a
// math/rand source (4.9 KB each) only to throw its one draw away. A whole
// validation, default outcomes included, has to fit well under that, and
// the default-outcome spec still validates.
func TestValidateSpecAllocatesNoSource(t *testing.T) {
	e, err := New(Config{Net: testNetwork(t, 4), Rng: rand.New(rand.NewSource(42))})
	if err != nil {
		t.Fatal(err)
	}
	const runs = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := e.ValidateSpec(RequestSpec{AccessStation: i % 4}); err != nil {
			t.Fatalf("default-outcome spec rejected: %v", err)
		}
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / runs; perCall >= 2048 {
		t.Fatalf("ValidateSpec allocates %d B per call; a rand source alone is 4.9 KB", perCall)
	}
	r, err := MaterializeSpec(e.cfg.Net, RequestSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Dist.Outcomes(); len(got) == 0 || got[0].Reward <= 0 {
		t.Fatalf("default outcomes %v: want the paper's five-point support with positive rewards", got)
	}
}
