package mecoffload

import (
	"math/rand"
	"testing"

	"mecoffload/internal/mec"
	"mecoffload/internal/oracle"
	"mecoffload/internal/serve"
	"mecoffload/internal/sim"
)

// BenchmarkServeSlot measures one daemon scheduling slot under steady
// load: each iteration submits a small arrival burst and ticks the
// admission engine once, exercising intake, DynamicRR with its cold
// per-component LP-PT solves, settlement, and the request table — the loop a
// production arserved runs every tick interval.
func BenchmarkServeSlot(b *testing.B) {
	benchServeSlot(b, nil)
}

// BenchmarkServeSlotOracle is the same loop with the oracle's per-slot
// invariant checker installed (what MEC_ORACLE=1 turns on in production);
// its delta against BenchmarkServeSlot is the cost of runtime checking.
func BenchmarkServeSlotOracle(b *testing.B) {
	benchServeSlot(b, oracle.EngineChecker())
}

// BenchmarkServeSlotSteady measures the quiescent slot path: no
// arrivals, no in-flight streams, just the per-tick engine loop a
// drained daemon spins on. This path is allocation-free — the engine
// reuses its slot scratch and leaves the request table alone on idle slots.
// TestServeSlotAllocBudget (internal/serve) pins it at 0 allocations,
// beside the budgets of the loaded slot BenchmarkServeSlot and
// BenchmarkServeSlotOracle time, and TestRunSlotIdleNoAllocs pins the
// same contract on the loop's slot function alone.
func BenchmarkServeSlotSteady(b *testing.B) {
	net, err := mec.RandomNetwork(20, 3000, 3600, rand.New(rand.NewSource(17)))
	if err != nil {
		b.Fatal(err)
	}
	eng, err := serve.New(serve.Config{Net: net, Rng: rand.New(rand.NewSource(18))})
	if err != nil {
		b.Fatal(err)
	}
	eng.Start()
	defer func() { _ = eng.Stop() }()
	// One warmup tick so lazily-grown engine buffers reach steady size.
	if err := eng.Tick(); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Tick(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchServeSlot(b *testing.B, check sim.StepChecker) {
	net, err := mec.RandomNetwork(20, 3000, 3600, rand.New(rand.NewSource(17)))
	if err != nil {
		b.Fatal(err)
	}
	eng, err := serve.New(serve.Config{Net: net, Rng: rand.New(rand.NewSource(18)), StepChecker: check})
	if err != nil {
		b.Fatal(err)
	}
	eng.Start()
	defer func() { _ = eng.Stop() }()

	// One loaded slot first, so iterations measure the steady state.
	for i := 0; i < 4; i++ {
		if _, _, err := eng.Submit(serve.RequestSpec{AccessStation: i % 20, DurationSlots: 4}); err != nil {
			b.Fatal(err)
		}
	}
	if err := eng.Tick(); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 4; k++ {
			if _, _, err := eng.Submit(serve.RequestSpec{AccessStation: (4*i + k) % 20, DurationSlots: 4}); err != nil {
				b.Fatal(err)
			}
		}
		if err := eng.Tick(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeIngest measures the batched intake pipeline end to end:
// each iteration submits one batch through SubmitBatch (pricing, the
// door, request-table inserts), flushes it into the planner, and ticks —
// the per-batch cost a bulk replay or the NDJSON endpoint pays. A
// profiling tool: the ingest path's end-to-end cost is `go run ./bench`'s
// ingest_flood workload.
func BenchmarkServeIngest(b *testing.B) {
	net, err := mec.RandomNetwork(20, 3000, 3600, rand.New(rand.NewSource(17)))
	if err != nil {
		b.Fatal(err)
	}
	eng, err := serve.New(serve.Config{Net: net, Rng: rand.New(rand.NewSource(18))})
	if err != nil {
		b.Fatal(err)
	}
	eng.Start()
	defer func() { _ = eng.Stop() }()

	const batch = 64
	specs := make([]serve.RequestSpec, batch)
	for i := range specs {
		specs[i] = serve.RequestSpec{
			AccessStation: i % 20,
			DurationSlots: 4,
			Outcomes: []serve.OutcomeSpec{
				{RateMBs: 40, Prob: 1, Reward: float64(300 + (i*7)%400)},
			},
		}
	}
	// One batch first, so iterations measure the steady state.
	if _, err := eng.SubmitBatch(specs); err != nil {
		b.Fatal(err)
	}
	if err := eng.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := eng.Tick(); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.SubmitBatch(specs); err != nil {
			b.Fatal(err)
		}
		if err := eng.Flush(); err != nil {
			b.Fatal(err)
		}
		if err := eng.Tick(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(batch, "reqs/batch")
}
