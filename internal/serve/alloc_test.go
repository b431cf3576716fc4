package serve

import (
	"math/rand"
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

// TestValidateSpecAllocatesNoSource: validating a line builds nothing — no
// math/rand source for a draw it would throw away (4.9 KB, once), no
// request, no distribution. Zero allocations for every shape of valid spec,
// and the default-outcome spec still validates and materializes.
func TestValidateSpecAllocatesNoSource(t *testing.T) {
	e, err := New(Config{Net: testNetwork(t, 4), Rng: rand.New(rand.NewSource(42))})
	if err != nil {
		t.Fatal(err)
	}
	specs := []RequestSpec{
		{AccessStation: 3},
		{AccessStation: 1, DurationSlots: 2, Outcomes: []OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: 500}}},
		{DeadlineMS: 100, Tasks: []TaskSpec{{Name: "t", OutputKb: 1, WorkMS: 5}},
			Outcomes: []OutcomeSpec{{RateMBs: 30, Prob: 0.5, Reward: 100}, {RateMBs: 50, Prob: 0.5, Reward: 200}}},
	}
	allocs := testing.AllocsPerRun(500, func() {
		for _, spec := range specs {
			if err := e.ValidateSpec(spec); err != nil {
				t.Fatalf("valid spec %+v rejected: %v", spec, err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("ValidateSpec allocates %v times per %d valid specs, want 0", allocs, len(specs))
	}
	r, err := MaterializeSpec(e.cfg.Net, RequestSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Dist.Outcomes(); len(got) == 0 || got[0].Reward <= 0 {
		t.Fatalf("default outcomes %v: want the paper's five-point support with positive rewards", got)
	}
}
