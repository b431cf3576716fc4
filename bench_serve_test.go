package mecoffload

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

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
	benchServeSlot(b, nil, nil)
}

// BenchmarkServeSlotCold is BenchmarkServeSlot's loop with the caches
// emptied of the slot's data before every iteration: with the timer
// stopped, it writes one byte of every 64-byte line of a 4 MB buffer,
// twice a 2 MB L2. A daemon's slot always follows intake and HTTP work,
// so this is the slot it runs; its gap to BenchmarkServeSlot is what
// the slot loses to cache misses. It touches only the benchmark's own
// memory.
func BenchmarkServeSlotCold(b *testing.B) {
	benchServeSlot(b, nil, make([]byte, 4<<20))
}

// BenchmarkServeSlotOracle is the same loop with the oracle's per-slot
// invariant checker installed (what MEC_ORACLE=1 turns on in production);
// its delta against BenchmarkServeSlot is the cost of runtime checking.
func BenchmarkServeSlotOracle(b *testing.B) {
	benchServeSlot(b, oracle.EngineChecker(), nil)
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

// benchServeSlot runs the loaded slot loop; a non-nil evict is walked
// before every iteration, off the clock.
func benchServeSlot(b *testing.B, check sim.StepChecker, evict []byte) {
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
		if evict != nil {
			b.StopTimer()
			for at := 0; at < len(evict); at += 64 {
				evict[at]++
			}
			b.StartTimer()
		}
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

// BenchmarkServeSlotBacklog measures what the decided backlog costs a
// loaded slot: one engine that never compacts (CompactAfter 1<<20), 12
// default-spec Submits and one Tick per slot on BenchmarkServeSlot's
// network, and the median Tick over 64 loaded slots once 1k, 8k and 32k
// requests have been decided. A slot's passes walk its batch, not every
// request index since the last compaction, so the benchmark fails unless
// the 32k median stays within 1.5x of the 1k one. On a 2-vCPU shared Xeon
// it reads ≈ 600 / 640 / 640 µs; while the task migrator scanned every
// decision and the rounding passes every index it read ≈ 730 / 850 /
// 1 200 µs.
func BenchmarkServeSlotBacklog(b *testing.B) {
	const perSlot, samples = 12, 64
	backlogs := []int{1_000, 8_000, 32_000}
	medians := make([]time.Duration, len(backlogs))
	for n := 0; n < b.N; n++ {
		net, err := mec.RandomNetwork(20, 3000, 3600, rand.New(rand.NewSource(17)))
		if err != nil {
			b.Fatal(err)
		}
		eng, err := serve.New(serve.Config{Net: net, Rng: rand.New(rand.NewSource(18)), CompactAfter: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		m := eng.Metrics()
		i := 0
		slot := func() time.Duration {
			for k := 0; k < perSlot; k++ {
				if _, _, err := eng.Submit(serve.RequestSpec{AccessStation: i % 20, DurationSlots: 4}); err != nil {
					b.Fatal(err)
				}
				i++
			}
			start := time.Now()
			if err := eng.Tick(); err != nil {
				b.Fatal(err)
			}
			return time.Since(start)
		}
		ticks := make([]time.Duration, samples)
		for bi, backlog := range backlogs {
			for m.Admitted.Load()+m.Expired.Load() < uint64(backlog) {
				slot()
			}
			for s := range ticks {
				ticks[s] = slot()
			}
			slices.Sort(ticks)
			medians[bi] = ticks[samples/2]
		}
		if err := eng.Stop(); err != nil {
			b.Fatal(err)
		}
	}
	for bi, backlog := range backlogs {
		b.ReportMetric(float64(medians[bi].Microseconds()), fmt.Sprintf("tick-p50-us@%dk", backlog/1000))
	}
	if last := len(backlogs) - 1; float64(medians[last]) > 1.5*float64(medians[0]) {
		b.Fatalf("a loaded slot grows with the decided backlog: tick p50 %v after %d decided requests, %v after %d",
			medians[0], backlogs[0], medians[last], backlogs[last])
	}
}

// BenchmarkServeSlotStations measures what the network's size costs a
// clean slot: BenchmarkIncrementalServeSlot's 16-request steady wave on
// its 16 four-station islands, padded with idle islands to 64, 256 and
// 1 024 stations, and the median Tick over 256 slots after 16 warm-up
// slots, each slot's wave submitted and flushed off the clock. Every
// sampled slot replays all of its components (the benchmark fails if one
// reaches the LP). A request can only reach its own island, and delay
// feasibility is walked out from its access station, so the benchmark
// fails unless the 1 024-station median stays within 2x of the 64-station
// one. On a 2-vCPU shared Xeon it reads ≈ 18 / 19 / 25 µs; while every
// rounding pass and expiry scanned every station per request the 64- and
// 1 024-station medians read ≈ 36 and 215–230 µs.
func BenchmarkServeSlotStations(b *testing.B) {
	const warmup, samples = 16, 256
	sizes := []int{64, 256, 1024}
	specs := benchPeriodicSpecs(16, len(benchIslandCaps))
	medians := make([]time.Duration, len(sizes))
	for n := 0; n < b.N; n++ {
		for si, size := range sizes {
			eng, err := serve.New(serve.Config{
				Net:       benchHeteroIslands(b, size/len(benchIslandCaps), benchIslandCaps),
				Rng:       rand.New(rand.NewSource(23)),
				DynamicRR: sim.DynamicRROptions{RoundingDenominator: 1},
			})
			if err != nil {
				b.Fatal(err)
			}
			slot := func() time.Duration {
				if _, err := eng.SubmitBatch(specs); err != nil {
					b.Fatal(err)
				}
				if err := eng.Flush(); err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				if err := eng.Tick(); err != nil {
					b.Fatal(err)
				}
				return time.Since(start)
			}
			for w := 0; w < warmup; w++ {
				slot()
			}
			dirty := eng.IncStats().DirtySolves
			ticks := make([]time.Duration, samples)
			for s := range ticks {
				ticks[s] = slot()
			}
			if d := eng.IncStats().DirtySolves - dirty; d != 0 {
				b.Fatalf("%d stations: %d component solves in the sampled slots, want every component to replay", size, d)
			}
			if err := eng.Stop(); err != nil {
				b.Fatal(err)
			}
			slices.Sort(ticks)
			medians[si] = ticks[samples/2]
		}
	}
	for si, size := range sizes {
		b.ReportMetric(float64(medians[si].Microseconds()), fmt.Sprintf("tick-p50-us@%d", size))
	}
	if last := len(sizes) - 1; float64(medians[last]) > 2*float64(medians[0]) {
		b.Fatalf("a clean slot grows with the network: tick p50 %v at %d stations, %v at %d",
			medians[0], sizes[0], medians[last], sizes[last])
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
