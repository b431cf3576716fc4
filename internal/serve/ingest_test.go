package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// pricedSpec builds a spec whose expected reward is exactly price.
func pricedSpec(station int, price float64) RequestSpec {
	return RequestSpec{
		AccessStation: station,
		DurationSlots: 3,
		Outcomes:      []OutcomeSpec{{Prob: 1, RateMBs: 40, Reward: price}},
	}
}

// TestSubmitBatchLifecycle drives a batch through intake, flush, and a
// few slots, and checks the ids stay resolvable end to end.
func TestSubmitBatchLifecycle(t *testing.T) {
	e := testEngine(t, Config{})
	specs := make([]RequestSpec, 6)
	for i := range specs {
		specs[i] = pricedSpec(i%e.cfg.Net.NumStations(), float64(100+i))
	}
	res, err := e.SubmitBatch(specs)
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if len(res.IDs) != 6 || res.Shed != 0 {
		t.Fatalf("batch result = %+v, want 6 ids and no shed", res)
	}
	for i := 1; i < len(res.IDs); i++ {
		if res.IDs[i] != res.IDs[i-1]+1 {
			t.Fatalf("ids not contiguous in submission order: %v", res.IDs)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got := e.metrics.Submitted.Load(); got != 6 {
		t.Fatalf("submitted = %d, want 6", got)
	}
	if d := e.metrics.IntakeDepth.Load(); d != 0 {
		t.Fatalf("post-flush door depth %d, want 0", d)
	}
	for _, id := range res.IDs {
		rec, ok, err := e.Status(id)
		if err != nil || !ok {
			t.Fatalf("status %d: ok=%v err=%v", id, ok, err)
		}
		if rec.State != StatePending {
			t.Fatalf("request %d state %q after flush, want pending", id, rec.State)
		}
	}
	for i := 0; i < 5; i++ {
		if err := e.Tick(); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
	}
	served := 0
	for _, id := range res.IDs {
		rec, ok, _ := e.Status(id)
		if ok && rec.State != StatePending {
			served++
		}
	}
	if served == 0 {
		t.Fatal("no batch request progressed past pending after 5 slots")
	}
	if got := e.metrics.Batches.Load(); got != 1 {
		t.Fatalf("batches counter = %d, want 1", got)
	}
	if got := e.metrics.BatchRequests.Load(); got != 6 {
		t.Fatalf("batch requests counter = %d, want 6", got)
	}
}

// TestSubmitBatchShedsLowestReward is the overload-policy test worked
// out entry by entry: a door of 8 and a pending queue already past
// MaxPending (two flushed requests over a bound of one). A batch of ten
// requests priced 1..10 must shed exactly the two cheapest, 1 and 2,
// whichever arrived first, and Flush must admit the 8 survivors in
// arrival order.
func TestSubmitBatchShedsLowestReward(t *testing.T) {
	e := testEngine(t, Config{
		DoorCapacity: 8,
		MaxPending:   1,
	})
	// Two requests flushed past MaxPending (Flush ignores the bound), so
	// no slot would take from the door.
	first, err := e.SubmitBatch([]RequestSpec{{AccessStation: 0, DurationSlots: 3}, {AccessStation: 1, DurationSlots: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	pre := first.IDs
	specs := make([]RequestSpec, 10)
	for i := range specs {
		specs[i] = pricedSpec(0, float64(i+1))
	}
	res, err := e.SubmitBatch(specs)
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if res.Shed != 2 {
		t.Fatalf("shed = %d, want 2 (prices 1 and 2)", res.Shed)
	}
	shed := map[uint64]bool{res.IDs[0]: true, res.IDs[1]: true}
	for i, id := range res.IDs {
		rec, ok, err := e.Status(id)
		if err != nil || !ok {
			t.Fatalf("status %d: ok=%v err=%v", id, ok, err)
		}
		want := StatePending
		if shed[id] {
			want = StateShed
		}
		if rec.State != want {
			t.Fatalf("price %d (id %d) state %q, want %q", i+1, id, rec.State, want)
		}
	}
	if got := e.metrics.Shed.Load(); got != 2 {
		t.Fatalf("shed counter = %d, want 2", got)
	}
	// Flush force-drains the door; the 8 survivors follow the two
	// flushed requests into the planner, oldest first.
	if err := e.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got := e.metrics.Submitted.Load(); got != 10 {
		t.Fatalf("submitted = %d, want 10 (2 flushed + 8 surviving batch)", got)
	}
	for i, id := range res.IDs[2:] {
		if idx := e.table.row(id).live.idx; idx != 2+i {
			t.Fatalf("price %d (id %d) admitted at planner index %d, want %d", i+3, id, idx, 2+i)
		}
	}
	for _, id := range pre {
		rec, ok, _ := e.Status(id)
		if !ok || rec.State != StatePending {
			t.Fatalf("flushed request %d disturbed by the later batch: %+v", id, rec)
		}
	}
}

// TestSubmitBatchEdgeCases covers the empty batch and the
// draining/stopped refusals.
func TestSubmitBatchEdgeCases(t *testing.T) {
	e := testEngine(t, Config{})
	res, err := e.SubmitBatch(nil)
	if err != nil || len(res.IDs) != 0 || res.Shed != 0 {
		t.Fatalf("empty batch = (%+v, %v), want zero result", res, err)
	}
	// A pending request keeps a draining manual-tick engine alive (an
	// empty drained engine exits immediately, which is the ErrStopped case).
	submitN(t, e, 1)
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SubmitBatch([]RequestSpec{{}}); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining SubmitBatch err = %v, want ErrDraining", err)
	}
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SubmitBatch([]RequestSpec{{}}); !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped SubmitBatch err = %v, want ErrStopped", err)
	}
}

// TestValidateSpecDeterminism: validation must not consume engine
// randomness, so interleaving validations cannot change admission
// decisions.
func TestValidateSpec(t *testing.T) {
	e := testEngine(t, Config{})
	if err := e.ValidateSpec(RequestSpec{}); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
	bad := RequestSpec{Outcomes: []OutcomeSpec{{Prob: -1, RateMBs: 40, Reward: 1}}}
	if err := e.ValidateSpec(bad); err == nil {
		t.Fatal("negative-probability spec validated")
	}
}

// TestInterleavedIntakeIsDeterministic: one call sequence gives one
// outcome. Twenty slots of a two-spec SubmitBatch, a one-spec Submit and a
// Tick, with no Flush, run forty times on identically seeded engines and
// end in the same snapshot requests and the same record for every id —
// the records of the same sixty default specs sent one by one through
// Submit, in the same order. A Submit is a batch of one through the same
// door, so the planner sees requests in submission order however they
// were grouped.
func TestInterleavedIntakeIsDeterministic(t *testing.T) {
	const slots, runs = 20, 40
	net := testNetwork(t, 4)
	type outcome struct {
		Requests []CheckpointRequest
		Records  []RequestRecord
	}
	run := func(interleaved bool) outcome {
		t.Helper()
		e, err := New(Config{Net: net, Rng: rand.New(rand.NewSource(7))})
		if err != nil {
			t.Fatal(err)
		}
		e.Start()
		defer func() { _ = e.Stop() }()
		var ids []uint64
		submit := func(spec RequestSpec) {
			id, _, err := e.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		for s := 0; s < slots; s++ {
			specs := []RequestSpec{{AccessStation: 3 * s % 4}, {AccessStation: (3*s + 1) % 4}, {AccessStation: (3*s + 2) % 4}}
			if interleaved {
				res, err := e.SubmitBatch(specs[:2])
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, res.IDs...)
				submit(specs[2])
			} else {
				for _, spec := range specs {
					submit(spec)
				}
			}
			if err := e.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		out := outcome{Requests: snap.Requests}
		for _, id := range ids {
			rec, ok, err := e.Status(id)
			if err != nil || !ok {
				t.Fatalf("status %d: ok=%v err=%v", id, ok, err)
			}
			out.Records = append(out.Records, rec)
		}
		return out
	}

	want := run(false)
	states := map[string]int{}
	for _, rec := range want.Records {
		states[rec.State]++
	}
	if len(want.Records) != 3*slots || states[StatePending] == 0 || states[StateServing] == 0 {
		t.Fatalf("vacuous run: %d records in states %v, %d live at the end", len(want.Records), states, len(want.Requests))
	}
	outcomes := map[string]int{}
	diverged := -1
	for i := 0; i < runs; i++ {
		got := run(true)
		outcomes[fmt.Sprintf("%+v", got)]++
		if diverged < 0 && !reflect.DeepEqual(got, want) {
			diverged = i
		}
	}
	if len(outcomes) != 1 {
		t.Fatalf("%d runs of one call sequence ended in %d different outcomes", runs, len(outcomes))
	}
	if diverged >= 0 {
		t.Fatal("interleaved batch and single submissions decide differently from the same specs submitted one by one")
	}
}
