# Developer entry points, and the one definition of every gate: each CI
# job in .github/workflows/ci.yml runs its target here (TestGateListsAgree
# checks the pairing). `make verify` is the tier-1 gate a change must keep
# green.

GO ?= go

.PHONY: verify build test race oracle cluster-parity incremental-parity drift fidelity bench bench-smoke tick-jitter fuzz lint fmt vet clean

## verify: tier-1 gate — build everything, vet, gofmt check, full tests.
verify: build vet fmt-check test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race: concurrency-sensitive packages — the online engine and the
## experiment harness fan repetitions out across goroutines — under the
## race detector, with the shortened experiment profile.
race:
	$(GO) test -race -short ./internal/lp/... ./internal/core/... ./internal/experiment/... ./internal/sim/... ./internal/serve/... ./internal/cluster/... ./internal/oracle/... ./cmd/arserved/...

## cluster-parity: the sharding correctness gate, under the race
## detector. It proves that 1-, 2- and 8-shard clusters decide what one
## engine decides (the oracle replay differential), that a manifest
## restores at any shard count and every other file is refused, that
## concurrent intake, ticks, drains and stops lose no accepted request, and
## that a drain keeps every shard ticking and learning until the last one
## is idle, so the final manifest holds every slot's feedback, and that a
## restart keeps every live request's status record and, over the same
## partition, each shard's own learner.
## The rest of the list pins what those rest on: the router's home-shard
## rule, the door, the stream ledgers, the request table, the clock after
## Stop and the goroutine census; each test's doc comment says what it
## checks. The binary's NDJSON replay runs in `make test`.
cluster-parity:
	$(GO) test -race -count=1 -v -run 'TestClusterParity|TestClusterCheckpointReshard|TestClusterCandidateShrinksEmpty|TestLiveRequestOutlivesRouterEntry|TestCheckpointRejected|TestConcurrentIntakeLosesNothing|TestAsyncCheckpointByteEquivalence|TestAsyncCheckpointCrashRestore|TestSaturatedIngestConserves|TestInterleavedIntakeIsDeterministic|TestDoorMatchesReference|TestSubmitBatchShedsLowestReward|TestEngineRunsNoGoroutines|TestClusterGoroutines|FuzzCheckpointRestore|TestRestoreRunningRefusesImpossibleStreams|TestLedgerParityWithMapReference|TestLedgersExactUnderInterleaving|TestRestoreOffGridSharesDrainsToZero|TestRouterSpanningHome|TestRouterHomesAtAccessOwner|TestRemovedSchedulerNameRestores|TestHTTPOverloadContract|TestStatusReportsGlobalStation|TestShardNetwork|TestTableProperty|TestTableEvictionCostsWhatItEvicts|TestTableInsertAllocs|TestFullTableRecyclesRows|TestSlabGrowsUnderReaders|TestRefusedLinesReported|TestGenerationIsOneFile|TestSoloRouteMatchesCandidateRule|TestRequestRowIsCompact|TestClockAfterStop|TestCleanDrainKeepsLearnedState|TestStaggeredDrain|TestRestoreKeepsRequestRecords|TestRestoreKeepsEachShardLearner' ./internal/cluster/ ./internal/serve/ ./internal/sim/

## incremental-parity: the decision path's correctness gate, under the
## race detector. It proves that DynamicRR as shipped, which files a
## component's solve once its signature repeats and replays it from the
## third sighting, decides exactly what the oracle's reference decides
## by re-solving every component every slot (on the fuzz corpus's wave
## draws too), that a signature hash only decides what is filed (a
## collision solves, never replays), that the planner builds a pending
## request only when R_t selects it, and that each shortcut of the slot
## path (compaction, dropped cap rows, the draw-first rounding pass, the
## standard-form LP builder, R_t's bounded pass, a request's reach read
## off the backhaul delay table) matches the loop it replaced, and that
## the delay table agrees with Floyd-Warshall; each test's doc comment
## says what it checks.
incremental-parity:
	$(GO) test -race -count=1 -v -run 'TestDiffIncrementalFull|TestColdSolveIsPure|TestRoundingLoopMatchesReference|TestIncCache|TestDefaultClusterReusesDecisions|TestCompactionIsInvisible|TestCompactionHoldsCapacity|TestDroppedCapRowsAreExact|TestRefinedPassColumnsCapped|TestScheduleBatchMatchesSolveAllReference|TestOfflineBoundSolvesEveryComponent|TestAssignRowMassWithinSlack|TestBuildLPWritesStandardForm|TestUnselectedRequestsNeverBuilt|TestDirtySetWaveDrawsReplay|TestSortByExpectedRateMatchesComparator|TestSortByExpectedRateBoundedPass|TestReachMatchesFullScan|TestDijkstraMatchesFloydWarshall' ./internal/oracle/ ./internal/lp/ ./internal/core/ ./internal/cluster/ ./internal/serve/ ./internal/sim/ ./internal/mec/ ./internal/graph/

## drift: the drift correctness gate — the metamorphic invariance suites
## (arm relabeling, scenario time shift), the learner's checkpoint/restore
## cycle deciding what the uninterrupted engine decides (also when the
## pending requests are unbuilt keys), a request's drawn
## distribution surviving a checkpoint, and the simulator's drift script
## (an outage evicting running streams, a handover re-pointing the
## pending queue and refiling each moved request's expiry, which must
## match a full scan slot by slot, a drift run deterministic and
## startable mid-horizon), all with pinned seeds under the race detector. Drift runs in the
## simulator only: the daemon installs no drift script.
drift:
	$(GO) test -race -count=1 -v -run \
		'TestMetamorphic|TestTimeShiftMetamorphic|TestCheckpointResumeDecisions|TestCheckpointWithUnbuiltPendingResumes|TestDrawnOutcomesSurviveCheckpoint|TestOutageEvictsRunningStreams|TestHandoverMovesPendingQueue|TestExpireMatchesFullScan|TestDriftRunDeterministic|TestDriftMidHorizonStart' \
		./internal/bandit/ ./internal/scenario/ ./internal/serve/ ./internal/sim/

## oracle: differential oracle suite, the daemon's packages with the
## runtime invariant checker on every engine, and the mutation smoke
## check — the oraclemutant build relaxes internal/core's capacity-fit
## test, and the suite must FAIL on it (mutant.log keeps its output),
## proving the oracle still catches seeded capacity bugs.
oracle:
	MEC_ORACLE=1 $(GO) test -count=1 ./internal/oracle/...
	MEC_ORACLE=1 $(GO) test -count=1 ./internal/cluster/ ./internal/serve/ ./cmd/arserved/
	$(GO) build -tags oraclemutant ./...
	@if $(GO) test -count=1 -tags oraclemutant \
		-run 'TestHeuRespectsCapacityAndLatency|TestDynamicRRInvariantsOnline' \
		./internal/oracle/ >mutant.log 2>&1; then \
		echo "seeded capacity mutant passed the oracle suite" >&2; \
		cat mutant.log >&2; exit 1; fi
	@grep -q 'FAIL' mutant.log
	@echo "oracle: mutant caught"

## fidelity: the committed results.csv still holds — `mecsim -experiment
## all -reps 5 -seed 42` regenerates every figure's table and must equal it
## on every row but the wall-clock runtimeMS ones. The run writes only to
## a temporary directory, removed afterwards.
fidelity:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/mecsim -experiment all -reps 5 -seed 42 -csv $$tmp/all.csv >$$tmp/all.txt && \
	grep -v runtimeMS results.csv >$$tmp/want && grep -v runtimeMS $$tmp/all.csv >$$tmp/got && \
	cmp $$tmp/want $$tmp/got && echo "fidelity: results.csv reproduced"

## bench: the repository benchmark — the paper's slot cycle end to end
## on the four workloads BENCHMARK.json declares, with per-layer figures.
## It is the one timing ledger; the exact allocation budgets of a daemon
## slot are `go test` tests (TestServeSlotAllocBudget,
## TestRunSlotIdleNoAllocs and the other AllocsPerRun pins).
bench:
	$(GO) run ./bench

## bench-smoke: compile-and-run-once pass over the benchmark harness
## (CI archives its output as bench-smoke.txt). No regression gate here: at
## -benchtime 1x neither timings nor allocation counts mean anything
## (`make bench` measures, the AllocsPerRun tests pin). The checks that
## do run are two backlog gates and a network-size gate:
## BenchmarkClusterTickBacklog's plain- and checkpoint-slot tick time flat
## within 2x from 1k to 100k settled spanning requests of routing history,
## BenchmarkServeSlotBacklog's loaded-slot tick flat within 1.5x from 1k to
## 32k decided requests on an engine that never compacts, and
## BenchmarkServeSlotStations' clean-slot tick within 2x from 64 to 1 024
## stations. BenchmarkBuildLP (the slot LP's
## builder, alone and beside its solve, on three shapes) lives in
## internal/core because it calls the unexported builder, and
## BenchmarkDecodeBatch (the NDJSON line scanner beside its encoding/json
## reference, on the three bodies the end-to-end workloads post) in
## internal/serve because the reference is a test file there, beside
## BenchmarkTableInsert (a 500-row batch into a request table at its
## bound, at id strides 1, 2 and 8).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkAppro|BenchmarkHeu|BenchmarkDynamicRRRun|BenchmarkLPColdVsWarm|BenchmarkServeSlot|BenchmarkServeSlotBacklog|BenchmarkServeSlotStations|BenchmarkServeIngest|BenchmarkClusterServeSlot|BenchmarkClusterTickJitter|BenchmarkClusterTickBacklog|BenchmarkIncrementalServeSlot|BenchmarkDriftAdaptivity' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkBuildLP' -benchtime 1x -benchmem ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkDecodeBatch|BenchmarkTableInsert' -benchtime 1x -benchmem ./internal/serve/

## tick-jitter: the stop-the-world smoke gate — with checkpoints
## firing every 4 slots on a loaded 2-shard cluster whose manifest holds a
## 2 000-request backlog, the median tick of the 16 checkpoint slots must
## stay within 5x the median of the 48 plain ones (10ms absolute floor),
## under the race detector. Medians, so one preemption of the test process
## does not fail it. A failure here means a checkpoint write landed back on
## the cluster clock.
tick-jitter:
	$(GO) test -race -count=1 -v -run 'TestTickPauseBoundWhileCheckpointing' ./internal/cluster/

## fuzz: seed-corpus regression then a short fuzzing budget (FuzzOracleLP,
## the differential behind the simplex's pricing, gets twice the others').
## FuzzCheckpointRestore's seeds are whole checkpoints (up to 22 KB), and
## the default 60 s minimization of each new input would eat its budget.
fuzz:
	$(GO) test -v -run 'FuzzParse|FuzzSolveInteger' ./internal/lp/
	$(GO) test -v -run 'FuzzOracleLP|FuzzDirtySet' ./internal/oracle/
	$(GO) test -v -run 'FuzzBatchDecode|FuzzSpecBuilds' ./internal/serve/
	$(GO) test -v -run 'FuzzScenarioDecode|FuzzScenarioV1Decode' ./internal/scenario/
	$(GO) test -v -run 'FuzzCheckpointRestore' ./internal/cluster/
	$(GO) test -fuzz 'FuzzParse' -fuzztime 30s ./internal/lp/
	$(GO) test -fuzz 'FuzzSolveInteger' -fuzztime 30s ./internal/lp/
	$(GO) test -fuzz 'FuzzOracleLP' -fuzztime 60s ./internal/oracle/
	$(GO) test -fuzz 'FuzzDirtySet' -fuzztime 30s ./internal/oracle/
	$(GO) test -fuzz 'FuzzBatchDecode$$' -fuzztime 30s ./internal/serve/
	$(GO) test -fuzz 'FuzzBatchDecodeMatchesReference' -fuzztime 30s ./internal/serve/
	$(GO) test -fuzz 'FuzzSpecBuilds' -fuzztime 30s ./internal/serve/
	$(GO) test -fuzz 'FuzzScenarioDecode$$' -fuzztime 30s ./internal/scenario/
	$(GO) test -fuzz 'FuzzCheckpointRestore' -fuzztime 30s -fuzzminimizetime 5s ./internal/cluster/

## lint: staticcheck (correctness checks only, see staticcheck.conf) and
## govulncheck, both at pinned versions via the module proxy — nothing is
## added to go.mod. Needs network access.
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.3
lint:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi

vet:
	$(GO) vet ./...

clean:
	rm -f mecoffload.test bench-smoke.txt mutant.log
