package serve

// A request the engine accepted keeps what it holds — its demand
// distribution and the access station a handover moved it to — across
// everything that moves it inside or out of the engine: a compaction, a
// checkpoint and restore, an Extract.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mecoffload/internal/dist"
	"mecoffload/internal/sim"
)

// heldRequest is what a pending request holds in the planner.
type heldRequest struct {
	station  int
	outcomes []dist.Outcome
}

// pendingHeld maps every pending request's id to what the planner holds
// for it. The caller makes no engine call at the same time.
func pendingHeld(e *Engine) map[uint64]heldRequest {
	out := map[uint64]heldRequest{}
	for _, j := range e.pending {
		r := e.planner.Requests()[j]
		h := heldRequest{station: r.AccessStation}
		for k := 0; k < r.Dist.Len(); k++ {
			h.outcomes = append(h.outcomes, r.Dist.OutcomeAt(k))
		}
		out[e.table.byIdx[j].rec.ID] = h
	}
	return out
}

// TestCompactionIsInvisible: compaction only drops settled requests, so an
// engine that compacts every few slots decides exactly as one that never
// does — slot for slot, on one seed and one default-spec trace with
// handovers every third slot. A compaction keeps every pending request's
// drawn distribution and its handed-over access station. The test runs the
// slots and the mid-run compaction itself, between its own calls.
func TestCompactionIsInvisible(t *testing.T) {
	const slots, stations = 300, 4
	drift := &sim.Drift{}
	for s := 2; s < slots; s += 3 {
		from := (s / 3) % stations
		drift.Handovers = append(drift.Handovers, sim.Handover{Slot: s, From: from, To: (from + 1) % stations})
	}
	net := testNetwork(t, stations)
	run := func(compactAfter int, probe func(slot int, e *Engine, submitted map[uint64]int)) []string {
		var decided []string
		e, err := New(Config{
			Net: net, Rng: rand.New(rand.NewSource(26)), CompactAfter: compactAfter, Drift: drift,
			DecisionObserver: func(slot int, admitted []uint64, reward float64) {
				decided = append(decided, fmt.Sprintf("slot %d admitted %v reward %v", slot, admitted, reward))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		arrivals := rand.New(rand.NewSource(27))
		submitted := map[uint64]int{} // id -> the access station it was submitted at
		for slot := 0; slot < slots; slot++ {
			for n := 8 + arrivals.Intn(8); n > 0; n-- {
				spec := RequestSpec{AccessStation: arrivals.Intn(stations), DurationSlots: 2 + arrivals.Intn(10), DeadlineMS: 1000}
				id, _, err := e.Submit(spec)
				if err != nil {
					t.Fatal(err)
				}
				submitted[id] = spec.AccessStation
			}
			e.runSlot()
			if probe != nil {
				probe(slot, e, submitted)
			}
		}
		if n := e.metrics.SlotErrors.Load(); n != 0 {
			t.Fatalf("%d slot errors", n)
		}
		return decided
	}

	probed, changed := false, ""
	compacting := run(64, func(slot int, e *Engine, submitted map[uint64]int) {
		if slot != 200 { // right after a handover slot
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
		handedOver := 0
		for id, h := range before {
			if h.station != submitted[id] {
				handedOver++
			}
		}
		if len(before) < 20 || handedOver < 5 {
			t.Fatalf("want a pending backlog with handed-over requests, got %d pending, %d handed over", len(before), handedOver)
		}
		after := pendingHeld(e)
		redrawn, moved := 0, 0
		for id, h := range before {
			if !reflect.DeepEqual(after[id].outcomes, h.outcomes) {
				redrawn++
			}
			if after[id].station != h.station {
				moved++
			}
		}
		if len(after) != len(before) || redrawn+moved > 0 {
			changed = fmt.Sprintf("re-drew %d of %d pending requests and moved %d of %d handed-over ones back", redrawn, len(before), moved, handedOver)
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
	if changed != "" {
		t.Fatalf("the mid-run compaction %s", changed)
	}
}

// backloggedEngine is a started engine with a pending backlog: n
// default-outcome requests submitted at station 0 in slot 0, more than one
// slot admits, with deadlines that keep the rest waiting. A handover moves
// station 0's pending requests to station 2 at slot 1; two ticks run.
func backloggedEngine(t *testing.T, n int) *Engine {
	t.Helper()
	e := testEngine(t, Config{Drift: &sim.Drift{Handovers: []sim.Handover{{Slot: 1, From: 0, To: 2}}}})
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

// TestHandoverSurvivesCheckpointAndExtract: a handover re-points a pending
// request's access station, and the station it moved to is the one a
// checkpoint restores and an Extract hands the next shard — not the one it
// was submitted at.
func TestHandoverSurvivesCheckpointAndExtract(t *testing.T) {
	e := backloggedEngine(t, 80)
	held := pendingHeld(e)
	for id, h := range held {
		if h.station != 2 {
			t.Fatalf("setup: pending request %d at station %d, want handed over to 2", id, h.station)
		}
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := New(Config{Net: e.cfg.Net, Rng: rand.New(rand.NewSource(43)), Restore: snap})
	if err != nil {
		t.Fatal(err)
	}
	for id, h := range pendingHeld(restored) {
		if h.station != 2 {
			t.Fatalf("restored request %d at station %d, want the handed-over 2", id, h.station)
		}
	}
	for id := range held {
		spec, _, err := e.Extract(id)
		if err != nil {
			t.Fatal(err)
		}
		if spec.AccessStation != 2 {
			t.Fatalf("extracted request %d names station %d, want the handed-over 2", id, spec.AccessStation)
		}
	}
}

// TestDrawnOutcomesSurviveCheckpointAndExtract: a request submitted without
// outcomes draws the paper-default distribution once, at admission. A
// checkpoint restores that distribution — into an engine whose own stream
// would draw a different one — and an Extract hands it on, so neither
// re-draws the request's reward.
func TestDrawnOutcomesSurviveCheckpointAndExtract(t *testing.T) {
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
		if !reflect.DeepEqual(got[id].outcomes, h.outcomes) {
			redrawn++
		}
	}
	if len(got) != len(held) || redrawn > 0 {
		t.Fatalf("restore re-drew %d of %d pending requests' distributions (%d restored pending)", redrawn, len(held), len(got))
	}
	for id, h := range held {
		spec, _, err := e.Extract(id)
		if err != nil {
			t.Fatal(err)
		}
		r, err := MaterializeSpec(e.cfg.Net, spec)
		if err != nil {
			t.Fatal(err)
		}
		var outcomes []dist.Outcome
		for k := 0; k < r.Dist.Len(); k++ {
			outcomes = append(outcomes, r.Dist.OutcomeAt(k))
		}
		if !reflect.DeepEqual(outcomes, h.outcomes) {
			t.Fatalf("extracted request %d materializes as %v, held %v", id, outcomes, h.outcomes)
		}
	}
}
