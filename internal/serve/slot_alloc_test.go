//go:build !race

// Under the race detector sync.Pool drops a random quarter of its Puts on
// purpose, so the slot scratch is re-made whatever the code does.

package serve

import (
	"math/rand"
	"testing"

	"mecoffload/internal/mec"
	"mecoffload/internal/oracle"
	"mecoffload/internal/sim"
)

// TestServeSlotAllocBudget pins the allocations of one loaded daemon slot —
// four default-spec Submits and a Tick on a started engine over the
// 20-station network BenchmarkServeSlot runs — at their measured counts,
// with and without the oracle's per-slot checker, and an idle Tick at 0.
// AllocsPerRun runs on one P, so the counts are exact; a budget is the
// measured count, so one extra allocation per slot fails it. The cases
// run in this order on purpose: the plain slot's count includes the
// process-wide pooled LP storage growing to this shape (about 30 a slot
// over the 1000 runs), which the oracle case then finds grown.
func TestServeSlotAllocBudget(t *testing.T) {
	if oracleEnv() {
		t.Skip("MEC_ORACLE installs the per-slot checker on every engine")
	}
	newEngine := func(check sim.StepChecker) *Engine {
		net, err := mec.RandomNetwork(20, 3000, 3600, rand.New(rand.NewSource(17)))
		if err != nil {
			t.Fatal(err)
		}
		return testEngine(t, Config{Net: net, Rng: rand.New(rand.NewSource(18)), StepChecker: check})
	}
	for _, tc := range []struct {
		name   string
		check  sim.StepChecker
		budget float64
	}{
		{"plain", nil, 169},
		{"oracle", oracle.EngineChecker(), 214},
	} {
		e := newEngine(tc.check)
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			for k := 0; k < 4; k++ {
				if _, _, err := e.Submit(RequestSpec{AccessStation: (4*i + k) % 20, DurationSlots: 4}); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Tick(); err != nil {
				t.Fatal(err)
			}
			i++
		})
		t.Logf("%s: %v allocations per loaded slot", tc.name, allocs)
		if allocs > tc.budget {
			t.Errorf("%s: a loaded slot allocates %v times, budget %v", tc.name, allocs, tc.budget)
		}
	}

	e := newEngine(nil)
	allocs := testing.AllocsPerRun(1000, func() {
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("an idle slot allocates %v times, want 0", allocs)
	}
}
