package serve

import (
	"math/rand"
	"testing"

	"mecoffload/internal/mec"
	"mecoffload/internal/workload"
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
			if err := ValidateSpec(e.cfg.Net, spec); err != nil {
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

// TestMaterializeSpecAllocs pins what materializing one request allocates:
// the request and its distribution (the struct, its outcomes and their
// cumulative probabilities), plus, for a spec without outcomes, the
// default outcomes drawn into the spec. Every default-task request shares
// one task slice, the outcome list NewRateReward reads lives on the stack,
// and a rate-sorted list is neither sorted nor copied a second time.
func TestMaterializeSpecAllocs(t *testing.T) {
	net := testNetwork(t, 4)
	rng := rand.New(rand.NewSource(42))
	for _, tc := range []struct {
		name string
		spec RequestSpec
		want float64
	}{
		{"default", RequestSpec{AccessStation: 1}, 5},
		{"flood", RequestSpec{AccessStation: 2, DurationSlots: 3, Outcomes: []OutcomeSpec{{RateMBs: 41.5, Prob: 1, Reward: 512}}}, 4},
	} {
		allocs := testing.AllocsPerRun(200, func() {
			spec := tc.spec
			if _, err := materializeSpec(net, rng, &spec); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != tc.want {
			t.Errorf("%s spec: materializing allocates %v times, want %v", tc.name, allocs, tc.want)
		}
	}
	a, err := MaterializeSpec(net, RequestSpec{AccessStation: 0})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MaterializeSpec(net, RequestSpec{AccessStation: 3})
	if err != nil {
		t.Fatal(err)
	}
	if &a.Tasks[0] != &b.Tasks[0] || len(a.Tasks) != cap(a.Tasks) {
		t.Fatal("default-task requests do not share one full-capacity task slice")
	}
	for i, st := range workload.CanonicalPipeline() {
		if want := (mec.Task{Name: st.Name, OutputKb: st.OutputKb, WorkMS: st.BaseWorkMS}); a.Tasks[i] != want {
			t.Fatalf("default task %d is %+v, want %+v", i, a.Tasks[i], want)
		}
	}
}
