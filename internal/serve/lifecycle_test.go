package serve

// What the request table promises the engine's callers across the events
// that rebuild or retire it: a restore, an in-memory compaction, a drain
// and a Stop.

import (
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// liveRecords returns the record of every pending or serving id.
func liveRecords(t *testing.T, e *Engine, ids []uint64) map[uint64]RequestRecord {
	t.Helper()
	out := map[uint64]RequestRecord{}
	for _, id := range ids {
		rec, ok, err := e.Status(id)
		if err != nil {
			t.Fatalf("status %d: %v", id, err)
		}
		if ok && (rec.State == StatePending || rec.State == StateServing) {
			out[id] = rec
		}
	}
	return out
}

// TestStatusAcrossRestoreAndCompaction: every live request answers with
// the same state before a Snapshot and after New(Config{Restore}), and
// with the identical record across an in-memory compaction — which also
// leaves the engine scheduling those requests to completion. The test runs
// the slots, the snapshot and the compaction itself, between its own calls.
func TestStatusAcrossRestoreAndCompaction(t *testing.T) {
	net := testNetwork(t, 4)
	e, err := New(Config{Net: net, Rng: rand.New(rand.NewSource(42)), CompactAfter: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// Four stations: a first wave of one-slot holds that has settled by the
	// snapshot, then long holds of which some serve and the rest stay pending.
	var ids []uint64
	for round := 0; round < 4; round++ {
		for i := 0; i < 40; i++ {
			hold := 30
			if round == 0 {
				hold = 1
			}
			id, _, err := e.Submit(RequestSpec{AccessStation: i % 4, DurationSlots: hold, DeadlineMS: 2000})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		e.runSlot()
	}
	before := liveRecords(t, e, ids)
	states := map[string]int{}
	for _, rec := range before {
		states[rec.State]++
	}
	if states[StatePending] == 0 || states[StateServing] == 0 || len(before) == len(ids) {
		t.Fatalf("want pending, serving and settled requests, got %v of %d", states, len(ids))
	}

	snap, err := e.snapshotState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := New(Config{Net: net, Rng: rand.New(rand.NewSource(42)), Restore: snap})
	if err != nil {
		t.Fatal(err)
	}
	after := liveRecords(t, restored, ids)
	if len(after) != len(before) {
		t.Fatalf("%d live requests before the snapshot, %d after the restore", len(before), len(after))
	}
	for id, want := range before {
		if got := after[id]; got.State != want.State || got.SubmittedSlot != want.SubmittedSlot {
			t.Fatalf("request %d restored as %+v, was %+v", id, got, want)
		}
	}

	planned := len(e.planner.Requests())
	if err := e.compact(); err != nil {
		t.Fatal(err)
	}
	if n := len(e.planner.Requests()); n != len(before) || n >= planned {
		t.Fatalf("compaction left %d planner requests of %d, want the %d live ones", n, planned, len(before))
	}
	for id, want := range before {
		if got, ok, _ := e.Status(id); !ok || got != want {
			t.Fatalf("request %d after compaction: %+v ok=%v, was %+v", id, got, ok, want)
		}
	}
	for i := 0; i < 80; i++ {
		e.runSlot()
	}
	for id := range before {
		if rec, _, _ := e.Status(id); rec.State == StatePending || rec.State == StateServing {
			t.Fatalf("request %d still %s 80 slots after the compaction", id, rec.State)
		}
	}
	if got := e.metrics.SlotErrors.Load(); got != 0 {
		t.Fatalf("%d slot errors", got)
	}
}

// TestStatusOutlivesDrainUntilStop: a drained engine that has run dry
// keeps answering lookups with its records; a stopped one fails them with
// ErrStopped.
func TestStatusOutlivesDrainUntilStop(t *testing.T) {
	e := testEngine(t, Config{})
	served, _, err := e.Submit(RequestSpec{AccessStation: 1, DurationSlots: 5, DeadlineMS: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12 && !e.Idle(); i++ {
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if !e.Idle() || !e.Alive() {
		t.Fatalf("after the drain: idle %v, alive %v; want an idle engine still running", e.Idle(), e.Alive())
	}
	if rec, ok, err := e.Status(served); err != nil || !ok || rec.State != StateCompleted {
		t.Fatalf("status on a drained engine: %+v ok=%v err=%v, want completed", rec, ok, err)
	}
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Status(served); !errors.Is(err, ErrStopped) {
		t.Fatalf("status after Stop: %v, want ErrStopped", err)
	}
}

// engineGoroutines counts the goroutines running a serve.Engine method.
func engineGoroutines() (n int) {
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "serve.(*Engine).") {
			n++
		}
	}
	return n
}

// TestEngineRunsNoGoroutines: an engine is locks, not goroutines. Across
// New, Start, a batch, a slot and Stop no goroutine runs an Engine method
// outside the call that made it, and none is left behind.
func TestEngineRunsNoGoroutines(t *testing.T) {
	check := func(when string) {
		t.Helper()
		if n := engineGoroutines(); n != 0 {
			t.Fatalf("%s: %d goroutines run an engine method, want 0", when, n)
		}
	}
	before := runtime.NumGoroutine()
	e, err := New(Config{Net: testNetwork(t, 4), Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	check("after Start")
	if _, err := e.SubmitBatch([]RequestSpec{{AccessStation: 0}}); err != nil {
		t.Fatal(err)
	}
	check("after SubmitBatch")
	if err := e.Tick(); err != nil {
		t.Fatal(err)
	}
	check("after Tick")
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	check("after Stop")
	if got := runtime.NumGoroutine() - before; got > 0 {
		t.Fatalf("the engine's life left %d more goroutines running", got)
	}
}

// TestCompactionDoesNotRewindPumpState: a batch at the door hands out ids
// and counts batches while a slot compacts under the planner lock;
// compaction must leave the id allocator and the counters where the door
// put them, or two requests share an id.
func TestCompactionDoesNotRewindPumpState(t *testing.T) {
	e, err := New(Config{Net: testNetwork(t, 4), Rng: rand.New(rand.NewSource(42))})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := e.Submit(RequestSpec{AccessStation: i}); err != nil {
			t.Fatal(err)
		}
	}
	e.nextExt.Add(5) // the door, while the slot compacts
	e.metrics.BatchRequests.Add(5)
	if err := e.compact(); err != nil {
		t.Fatal(err)
	}
	if got := e.nextExt.Load(); got != 8 {
		t.Fatalf("id allocator at %d after the compaction, want 8", got)
	}
	// Three Submits, each a batch of one, and the five above.
	if got := e.metrics.BatchRequests.Load(); got != 8 {
		t.Fatalf("batch-request counter at %d after the compaction, want 8", got)
	}
}
