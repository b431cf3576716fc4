package serve

// What the request table promises the engine's callers across the events
// that rebuild or retire it: a restore, an in-memory compaction, an
// extract, a drain and a Stop.

import (
	"errors"
	"math/rand"
	"reflect"
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

// TestExtractOnlyPending: Extract hands over a request the planner holds
// undecided and records it migrated; anything else — unknown, serving,
// already terminal, already extracted — is ErrNotPending and leaves the
// record alone.
func TestExtractOnlyPending(t *testing.T) {
	e := testEngine(t, Config{})
	spec := RequestSpec{AccessStation: 1, DurationSlots: 5, DeadlineMS: 2000}
	served, _, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Tick(); err != nil {
		t.Fatal(err)
	}
	if rec, _, _ := e.Status(served); rec.State != StateServing {
		t.Fatalf("setup: request %d is %s, want serving", served, rec.State)
	}
	pending, _, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	for name, id := range map[string]uint64{"unknown": 999, "serving": served} {
		before, _, _ := e.Status(id)
		if _, _, err := e.Extract(id); !errors.Is(err, ErrNotPending) {
			t.Fatalf("extract of a %s request: %v, want ErrNotPending", name, err)
		}
		if after, _, _ := e.Status(id); after != before {
			t.Fatalf("refused extract moved the %s record: %+v -> %+v", name, before, after)
		}
	}
	got, arrival, err := e.Extract(pending)
	if err != nil {
		t.Fatal(err)
	}
	if got.AccessStation != spec.AccessStation || got.DurationSlots != spec.DurationSlots || arrival != 1 {
		t.Fatalf("extracted spec %+v arrival %d, want %+v arrival 1", got, arrival, spec)
	}
	if rec, _, _ := e.Status(pending); rec.State != StateMigrated || rec.DecisionSlot != 1 {
		t.Fatalf("extracted request recorded as %+v, want migrated at slot 1", rec)
	}
	if _, _, err := e.Extract(pending); !errors.Is(err, ErrNotPending) {
		t.Fatalf("second extract: %v, want ErrNotPending", err)
	}
	if got := e.Metrics().PendingDepth.Load(); got != 0 {
		t.Fatalf("pending depth %d after the extract, want 0", got)
	}

	// A drained engine keeps answering; a stopped one does not.
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12 && e.Alive(); i++ {
		if err := e.Tick(); err != nil && !errors.Is(err, ErrStopped) {
			t.Fatal(err)
		}
	}
	if e.Alive() {
		t.Fatal("engine did not drain")
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

// TestIDReturnsAfterExtract: a request keeps one id while the cluster moves
// it between engines. An id that left engine A by Extract and comes back —
// at once (a handoff's compensation) or after a stay on engine B — revives
// its migrated row: A answers pending, then the decision, under that id;
// and because the row is live again, eviction walking past the position it
// has held since its first arrival leaves it alone.
func TestIDReturnsAfterExtract(t *testing.T) {
	var admitted []uint64
	a := testEngine(t, Config{DecisionObserver: func(_ int, ids []uint64, _ float64) {
		admitted = append(admitted, ids...)
	}})
	b := testEngine(t, Config{})
	const bound = 8
	a.table.mu.Lock()
	a.table.max = bound
	a.table.mu.Unlock()
	spec := RequestSpec{AccessStation: 1, DurationSlots: 5, DeadlineMS: 2000}
	const id = 100
	state := func(e *Engine) string {
		t.Helper()
		rec, ok, err := e.Status(id)
		if err != nil || !ok || rec.ID != id {
			t.Fatalf("status(%d) = %+v ok=%v err=%v", id, rec, ok, err)
		}
		return rec.State
	}
	move := func(from, to *Engine) {
		t.Helper()
		got, _, err := from.Extract(id)
		if err != nil {
			t.Fatal(err)
		}
		if s := state(from); s != StateMigrated {
			t.Fatalf("extracted request is %s at its source, want migrated", s)
		}
		if _, err := to.SubmitAs(id, got); err != nil {
			t.Fatal(err)
		}
		if s := state(to); s != StatePending {
			t.Fatalf("re-homed request is %s at its target, want pending", s)
		}
	}
	if _, err := a.SubmitAs(id, spec); err != nil {
		t.Fatal(err)
	}
	move(a, a) // the same-sweep compensation
	move(a, b)
	move(b, a) // A -> B -> A
	if s := state(b); s != StateMigrated {
		t.Fatalf("request is %s at the engine it left, want migrated", s)
	}

	// Fill A's table with terminal rows until eviction has passed the
	// oldest position several times over.
	for other := uint64(0); other < 4*bound; other++ {
		if _, err := a.SubmitAs(other, spec); err != nil {
			t.Fatal(err)
		}
		if _, _, err := a.Extract(other); err != nil {
			t.Fatal(err)
		}
	}
	a.table.mu.RLock()
	rows, oldest := len(a.table.rows), a.table.head.rec.ID
	a.table.mu.RUnlock()
	if rows > bound || oldest != id {
		t.Fatalf("table holds %d rows (bound %d), oldest id %d: want the bound kept and the revived row still first", rows, bound, oldest)
	}
	if _, ok, _ := a.Status(0); ok {
		t.Fatal("the oldest terminal row was not evicted: eviction never reached the revived row's position")
	}
	if s := state(a); s != StatePending {
		t.Fatalf("revived request is %s after eviction passed it, want pending", s)
	}
	if got := a.nextExt.Load(); got != id+1 {
		t.Fatalf("the engine's own numbering stands at %d, want past the largest id it was handed (%d)", got, id+1)
	}

	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	if s := state(a); s != StateServing {
		t.Fatalf("revived request is %s after a slot, want serving", s)
	}
	if !reflect.DeepEqual(admitted, []uint64{id}) {
		t.Fatalf("decision report names %v, want [%d]", admitted, id)
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
	if got := e.metrics.BatchRequests.Load(); got != 5 {
		t.Fatalf("batch-request counter at %d after the compaction, want 5", got)
	}
}
