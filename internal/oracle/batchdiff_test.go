// Batch-intake differential: below saturation, how requests are grouped
// at the door must be invisible to the scheduler. The harnesses drive the
// same spec stream into identically seeded engines — one via Submit per
// request (a batch of one each, taken at slot start), one via
// SubmitBatch+Flush — and must produce bit-for-bit equal replay dumps.
//
// This lives in package oracle_test because serve imports oracle (for
// the engine's invariant checker); the external test package breaks the
// cycle.
package oracle_test

import (
	"math/rand"
	"testing"

	"mecoffload/internal/mec"
	"mecoffload/internal/oracle"
	"mecoffload/internal/serve"
)

// diffSpecs derives a deterministic per-slot spec stream mixing
// default-outcome specs (which consume engine randomness at admission)
// with explicit-outcome specs (which do not) — the mix is what catches
// RNG-stream divergence between the two intake paths.
func diffSpecs(stations, slots int, rng *rand.Rand) [][]serve.RequestSpec {
	out := make([][]serve.RequestSpec, slots)
	for s := range out {
		specs := make([]serve.RequestSpec, rng.Intn(5))
		for i := range specs {
			spec := serve.RequestSpec{
				AccessStation: rng.Intn(stations),
				DurationSlots: 1 + rng.Intn(6),
			}
			if rng.Intn(2) == 0 {
				spec.Outcomes = []serve.OutcomeSpec{
					{Prob: 0.5, RateMBs: 30 + rng.Float64()*20, Reward: 100 + rng.Float64()*400},
					{Prob: 0.5, RateMBs: 30 + rng.Float64()*20, Reward: 100 + rng.Float64()*400},
				}
			}
			specs[i] = spec
		}
		out[s] = specs
	}
	return out
}

// runIntake drives one engine over the spec stream and returns its
// replay dump. submit is called once per slot with that slot's specs;
// it chooses the intake path.
func runIntake(t *testing.T, specs [][]serve.RequestSpec,
	submit func(e *serve.Engine, slot []serve.RequestSpec)) *oracle.ReplayDump {
	t.Helper()
	net, err := mec.RandomNetwork(4, 3000, 3600, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	dump := &oracle.ReplayDump{}
	e, err := serve.New(serve.Config{
		Net: net,
		Rng: rand.New(rand.NewSource(7)),
		DecisionObserver: func(slot int, admitted []uint64, reward float64) {
			if len(admitted) > 0 {
				ids := make([]int, len(admitted))
				for i, id := range admitted {
					ids[i] = int(id)
				}
				dump.Slots = append(dump.Slots, oracle.SlotAdmissions{Slot: slot, Admitted: ids, Reward: reward})
			}
			dump.TotalReward += reward
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	for _, slot := range specs {
		submit(e, slot)
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	// Identical drain tail so late decisions land in the same slots.
	for i := 0; i < 10; i++ {
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	dump.Submitted = int(e.Metrics().Submitted.Load())
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	return dump
}

// TestBatchIntakeMatchesSingle is the differential itself, run against
// one Submit per request at two batching granularities: one batch per
// slot, and each slot split into two batches. Grouping must be invisible
// to the scheduler.
func TestBatchIntakeMatchesSingle(t *testing.T) {
	specs := diffSpecs(4, 30, rand.New(rand.NewSource(3)))
	total := 0
	for _, s := range specs {
		total += len(s)
	}
	if total == 0 {
		t.Fatal("vacuous spec stream")
	}

	single := runIntake(t, specs, func(e *serve.Engine, slot []serve.RequestSpec) {
		for _, spec := range slot {
			if _, _, err := e.Submit(spec); err != nil {
				t.Fatalf("single submit: %v", err)
			}
		}
	})
	if single.Submitted != total || len(single.Slots) == 0 {
		t.Fatalf("vacuous single-path run: submitted %d/%d, %d admitting slots",
			single.Submitted, total, len(single.Slots))
	}

	batched := runIntake(t, specs, func(e *serve.Engine, slot []serve.RequestSpec) {
		if _, err := e.SubmitBatch(slot); err != nil {
			t.Fatalf("batch submit: %v", err)
		}
		if err := e.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
	})
	if !single.Equal(batched) {
		t.Fatalf("batched intake diverges from single-POST intake: %s", single.Diff(batched))
	}

	split := runIntake(t, specs, func(e *serve.Engine, slot []serve.RequestSpec) {
		mid := len(slot) / 2
		for _, part := range [][]serve.RequestSpec{slot[:mid], slot[mid:]} {
			if _, err := e.SubmitBatch(part); err != nil {
				t.Fatalf("split batch submit: %v", err)
			}
		}
		if err := e.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
	})
	if !single.Equal(split) {
		t.Fatalf("split-batch intake diverges from single-POST intake: %s", single.Diff(split))
	}
}
