package serve

// A request the engine accepted keeps the demand distribution it drew
// across everything that moves it inside the engine or out of it: a
// compaction, a checkpoint and restore.

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"mecoffload/internal/dist"
)

// pendingHeld maps every pending request's id to the demand distribution
// the planner holds for it, or builds from its spec when R_t selects it.
// The caller makes no engine call at the same time.
func pendingHeld(e *Engine) map[uint64][]dist.Outcome {
	out := map[uint64][]dist.Outcome{}
	for _, j := range e.pending {
		r := e.planner.Materialized(j)
		var outcomes []dist.Outcome
		for k := 0; k < r.Dist.Len(); k++ {
			outcomes = append(outcomes, r.Dist.OutcomeAt(k))
		}
		out[e.table.byIdx[j].id] = outcomes
	}
	return out
}

// TestCompactionIsInvisible: compaction only drops settled requests, so an
// engine that compacts every few slots decides exactly as one that never
// does — slot for slot, on one seed and one default-spec trace. A
// compaction keeps every pending request's drawn distribution. The test
// runs the slots and the mid-run compaction itself, between its own calls.
func TestCompactionIsInvisible(t *testing.T) {
	const slots, stations = 300, 4
	net := testNetwork(t, stations)
	run := func(compactAfter int, probe func(slot int, e *Engine)) []string {
		var decided []string
		e, err := New(Config{
			Net: net, Rng: rand.New(rand.NewSource(26)), CompactAfter: compactAfter,
			DecisionObserver: func(slot int, admitted []uint64, reward float64) {
				decided = append(decided, fmt.Sprintf("slot %d admitted %v reward %v", slot, admitted, reward))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		arrivals := rand.New(rand.NewSource(27))
		for slot := 0; slot < slots; slot++ {
			for n := 8 + arrivals.Intn(8); n > 0; n-- {
				spec := RequestSpec{AccessStation: arrivals.Intn(stations), DurationSlots: 2 + arrivals.Intn(10), DeadlineMS: 1000}
				if _, _, err := e.Submit(spec); err != nil {
					t.Fatal(err)
				}
			}
			e.runSlot()
			if probe != nil {
				probe(slot, e)
			}
		}
		if n := e.metrics.SlotErrors.Load(); n != 0 {
			t.Fatalf("%d slot errors", n)
		}
		return decided
	}

	probed, changed := false, ""
	selfCompacted, dropped := 0, 0
	compacting := run(64, func(slot int, e *Engine) {
		// Before the probe's own compaction, count the engine's: every one
		// drops requests from the planner.
		if !probed {
			if n := int(e.metrics.Submitted.Load()) - len(e.planner.Requests()); n > dropped {
				selfCompacted++
				dropped = n
			}
		}
		// From slot 200 on, at the first slot that left settled requests to
		// drop: the engine's own compaction may just have run.
		if probed || slot < 200 || e.settled == 0 {
			return
		}
		probed = true
		before := pendingHeld(e)
		planned := len(e.planner.Requests())
		if err := e.compact(); err != nil {
			t.Fatal(err)
		}
		if n := len(e.planner.Requests()); n >= planned {
			t.Fatalf("compaction kept %d of %d planner requests", n, planned)
		}
		if len(before) < 20 {
			t.Fatalf("want a pending backlog, got %d pending", len(before))
		}
		after := pendingHeld(e)
		redrawn := 0
		for id, h := range before {
			if !reflect.DeepEqual(after[id], h) {
				redrawn++
			}
		}
		if len(after) != len(before) || redrawn > 0 {
			changed = fmt.Sprintf("re-drew %d of %d pending requests (%d pending after)", redrawn, len(before), len(after))
		}
	})
	never := run(1<<20, nil)
	for slot := range never {
		if slot >= len(compacting) || compacting[slot] != never[slot] {
			t.Fatalf("decision %d: compacting engine %q, uncompacted engine %q", slot, compacting[slot], never[slot])
		}
	}
	if len(compacting) != len(never) {
		t.Fatalf("compacting engine reported %d slots, uncompacted %d", len(compacting), len(never))
	}
	if !probed {
		t.Fatal("the mid-run compaction never ran")
	}
	if selfCompacted < 2 {
		t.Fatalf("the engine compacted %d times on its own before slot 200, want it to compact mid-run", selfCompacted)
	}
	if changed != "" {
		t.Fatalf("the mid-run compaction %s", changed)
	}
}

// backloggedEngine is a started engine with a pending backlog: n
// default-outcome requests submitted at station 0 in slot 0, more than one
// slot admits, with deadlines that keep the rest waiting; two ticks run.
func backloggedEngine(t *testing.T, n int) *Engine {
	t.Helper()
	e := testEngine(t, Config{})
	for i := 0; i < n; i++ {
		if _, _, err := e.Submit(RequestSpec{AccessStation: 0, DurationSlots: 50, DeadlineMS: 5000}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if held := pendingHeld(e); len(held) < 4 {
		t.Fatalf("setup: %d requests pending, want a backlog", len(held))
	}
	return e
}

// TestDrawnOutcomesSurviveCheckpoint: a request submitted without outcomes
// draws the paper-default distribution once, at admission. A checkpoint
// restores that distribution — into an engine whose own stream would draw
// a different one — so a restart never re-draws the request's reward.
func TestDrawnOutcomesSurviveCheckpoint(t *testing.T) {
	e := backloggedEngine(t, 80)
	held := pendingHeld(e)
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := New(Config{Net: e.cfg.Net, Rng: rand.New(rand.NewSource(43)), Restore: snap})
	if err != nil {
		t.Fatal(err)
	}
	got := pendingHeld(restored)
	redrawn := 0
	for id, h := range held {
		if !reflect.DeepEqual(got[id], h) {
			redrawn++
		}
	}
	if len(got) != len(held) || redrawn > 0 {
		t.Fatalf("restore re-drew %d of %d pending requests' distributions (%d restored pending)", redrawn, len(held), len(got))
	}
}

// TestCompactionHoldsCapacity: under steady arrivals and settlements the
// planner compacts in place whenever an admission would grow its arrays
// and at least half their entries are settled, so once warmed up their
// capacity reaches a plateau and stays there, and a compaction allocates
// nothing.
func TestCompactionHoldsCapacity(t *testing.T) {
	const perSlot = 12
	e := testEngine(t, Config{})
	slot := func(i int) {
		for k := 0; k < perSlot; k++ {
			if _, _, err := e.Submit(RequestSpec{AccessStation: (i + k) % 4, DurationSlots: 4}); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		slot(i)
	}
	plateau, compactions := cap(e.res.Decisions), 0
	for i := 200; i < 1000; i++ {
		before := len(e.res.Decisions)
		slot(i)
		if len(e.res.Decisions) != before+perSlot {
			compactions++
		}
		if c := cap(e.res.Decisions); c > plateau {
			t.Fatalf("slot %d: the planner's decisions grew to capacity %d past the plateau %d (%d live)", i, c, plateau, len(e.res.Decisions)-e.settled)
		}
	}
	if compactions < 10 {
		t.Fatalf("%d compactions over 800 steady slots", compactions)
	}
	if e.settled == 0 {
		t.Fatal("nothing settled to compact")
	}
	live := len(e.res.Decisions) - e.settled
	e.keep = slices.Grow(e.keep[:0], live) // the scratch a long-running engine has grown
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := e.compact()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.res.Decisions) != live || len(e.planner.Requests()) != live {
		t.Fatalf("compaction kept %d decisions and %d requests, want the %d live", len(e.res.Decisions), len(e.planner.Requests()), live)
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("a compaction allocated %d times, want 0", n)
	}
}
