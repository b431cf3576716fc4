package sim

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"mecoffload/internal/core"
)

// TestStepIdleNoAllocs pins the steady-state slot path: a Step over an
// empty pending queue with no departing streams must not allocate. Idle
// slots dominate a long-running daemon's life, so any per-slot garbage
// here multiplies by the tick rate.
func TestStepIdleNoAllocs(t *testing.T) {
	net := liveTestNetwork(t, 4)
	eng, err := NewLiveEngine(net, rand.New(rand.NewSource(1)), 0)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewDynamicRR(DynamicRROptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := &core.Result{Algorithm: sched.Name()}

	slot := 0
	var stepErr error
	allocs := testing.AllocsPerRun(200, func() {
		_, _, err := eng.Step(sched, res, slot, nil)
		if err != nil && stepErr == nil {
			stepErr = err
		}
		slot++
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if allocs != 0 {
		t.Fatalf("idle Step allocated %.1f times per slot, want 0", allocs)
	}
}

// raceEnabled reports a race-detector build (alloc_race_test.go).
var raceEnabled bool

// TestScheduleParkedBacklogAllocs pins what one DynamicRR.Schedule costs
// in allocations over a parked backlog far larger than R_t: 2 400 pending
// requests on four stations, of which at most a few dozen fit. Ordering
// the backlog reuses the scheduler's buffers whatever its size, so the
// count is the LP path's alone. Every run schedules from the same empty
// ledger.
func TestScheduleParkedBacklogAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; the slot scratch is pooled")
	}
	const backlog = 2400
	net := liveTestNetwork(t, 4)
	eng, err := NewLiveEngine(net, rand.New(rand.NewSource(1)), 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(26))
	pending := make([]int, backlog)
	for j := range pending {
		if err := eng.Append(liveRequest(t, j, 0, rng.Intn(4), 3, 30+20*rng.Float64())); err != nil {
			t.Fatal(err)
		}
		pending[j] = j
	}
	sched, err := NewDynamicRR(DynamicRROptions{})
	if err != nil {
		t.Fatal(err)
	}
	res := &core.Result{Algorithm: sched.Name(), Decisions: make([]core.Decision, backlog)}
	var schedErr error
	admittedMax := 0
	// No collection mid-measurement: one would empty the pooled slot
	// scratch and charge its refill to whichever run came next.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(100, func() {
		clear(eng.Used())
		for j := range res.Decisions {
			res.Decisions[j] = core.Decision{RequestID: j, Station: -1}
		}
		admitted, err := sched.Schedule(eng, res, 0, pending)
		if err != nil && schedErr == nil {
			schedErr = err
		}
		admittedMax = max(admittedMax, len(admitted))
		sched.Feedback(0, float64(len(admitted)))
	})
	if schedErr != nil {
		t.Fatal(schedErr)
	}
	if admittedMax == 0 || admittedMax > backlog/10 {
		t.Fatalf("at most %d of %d admitted a slot: want R_t a small part of the backlog", admittedMax, backlog)
	}
	// What the full sort of the backlog cost, read on a fresh process; the
	// selection that replaced it allocates nothing more.
	const budget = 163
	if allocs > budget {
		t.Fatalf("Schedule over %d pending allocated %.1f times, want at most %d", backlog, allocs, budget)
	}
}
