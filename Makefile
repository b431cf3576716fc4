# Developer entry points, and the one definition of every gate: each CI
# job in .github/workflows/ci.yml runs its target here (TestGateListsAgree
# checks the pairing). `make verify` is the tier-1 gate a change must keep
# green.

GO ?= go

.PHONY: verify build test race oracle cluster-parity incremental-parity drift bench bench-smoke tick-jitter fuzz lint fmt vet clean

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

## cluster-parity: the sharding correctness gate — the oracle replay
## differential proving 1-, 2-, and 8-shard clusters emit identical
## decision streams (a request whose candidate set is or becomes empty
## among them), plus the reshard-restore contracts (a stream that keeps
## answering serving through later submits and a restore among them) and
## the restore refusing every
## file that is not a manifest of the one format written for this
## topology, concurrent intake, ticks and a drain losing no accepted
## request, the saturated batched intake
## staying inside its queue bounds and accounting for every accepted
## request at 1 and 2 shards, one interleaving of batch and single
## submits giving one outcome on every run, the door's buffer against
## its naive reference and its overflow rule worked out entry by entry
## (shed the cheapest, drain the survivors oldest first), the goroutine census (an
## engine runs none, a cluster runs shards − 1), restore refusing a
## running stream no engine could have written (a negative share among
## them), the engine's stream ledgers bit-identical to a map-based
## reference, every ledger equal bit for bit to its live holds (and 0
## when none run) under any interleaving of admit, release, evict,
## compaction and restore, a pre-grid snapshot restoring exact ledgers
## that drain to 0, and the home-shard rule (a spanning request homes on its
## access station's shard when that owns a candidate), a generation
## naming a removed scheduler
## restoring under DynamicRR and written back naming it, and the one
## overload rule (a single POST the door sheds on arrival answers 503 +
## Retry-After, like a refused batch), and the one station numbering (a
## shard's masked network keeps the delays of its own stations bit for
## bit, and a request's status names a station its shard owns), the
## request table's id window against a map model in every id order a
## cluster produces (strides, late batches, inserts below the window,
## restores) and its bound costing what it evicts with no allocation, and
## a line its shard refused reported as an error of that line, a
## checkpoint generation that is the manifest file alone across
## checkpoints, stops and restarts, and the router's solo stations (a
## request that has no shard to choose is routed without a candidate
## list, to the shard, and as the spec, the candidate rule gives), the
## request row's layout (at most 56 pointer-free bytes, its chunk filling
## its size class), and a status lookup that a stopped shard does not
## hide from the shard holding the row, all under the race detector. The
## binary's NDJSON replay path runs at 1 and 2 shards in `make test`
## (TestNDJSONReplayMode in cmd/arserved).
cluster-parity:
	$(GO) test -race -count=1 -v -run 'TestClusterParity|TestClusterCheckpointReshard|TestClusterCandidateShrinksEmpty|TestLiveRequestOutlivesRouterEntry|TestCheckpointRejected|TestConcurrentIntakeLosesNothing|TestAsyncCheckpointByteEquivalence|TestAsyncCheckpointCrashRestore|TestSaturatedIngestConserves|TestInterleavedIntakeIsDeterministic|TestDoorMatchesReference|TestSubmitBatchShedsLowestReward|TestEngineRunsNoGoroutines|TestClusterGoroutines|FuzzCheckpointRestore|TestRestoreRunningRefusesImpossibleStreams|TestLedgerParityWithMapReference|TestLedgersExactUnderInterleaving|TestRestoreOffGridSharesDrainsToZero|TestRouterSpanningHome|TestRouterHomesAtAccessOwner|TestRemovedSchedulerNameRestores|TestHTTPOverloadContract|TestStatusReportsGlobalStation|TestShardNetwork|TestTableProperty|TestTableEvictionCostsWhatItEvicts|TestTableInsertAllocs|TestRefusedLinesReported|TestGenerationIsOneFile|TestSoloRouteMatchesCandidateRule|TestRequestRowIsCompact|TestStoppedShardHidesNoRow' ./internal/cluster/ ./internal/serve/ ./internal/sim/

## incremental-parity: the decision path's correctness gate — the oracle
## differential proving that DynamicRR as shipped (clean components
## replay their cached decision) emits a decision stream identical to the
## oracle's reference, which re-solves every component every slot; the
## property that replay rests on (a cold solve is a function of its LP
## alone, whatever the pooled scratch held); Appro and Heu over the shared
## pass loop against the offline loop they used to run, decision for
## decision; the dirty-set and first-sighting edge-case
## suite; the default 1-shard cluster against the reference on the steady
## wave; an engine that compacts every few slots against one that
## never does; the slot LP's dropped cap rows against the unpruned LP and
## the dense reference simplex; the per-station column cap of the
## refined passes; the draw-first rounding pass against the loop that
## solves every component before it draws, per slot and offline, and the
## assign-row margin its skip rests on; the standard form the slot LP's
## builder writes against the same LP built through lp.Problem, bit for
## bit — all under the race detector.
incremental-parity:
	$(GO) test -race -count=1 -v -run 'TestDiffIncrementalFull|TestColdSolveIsPure|TestRoundingLoopMatchesReference|TestIncCache|TestDefaultClusterReusesDecisions|TestCompactionIsInvisible|TestCompactionHoldsCapacity|TestDroppedCapRowsAreExact|TestRefinedPassColumnsCapped|TestScheduleBatchMatchesSolveAllReference|TestOfflineBoundSolvesEveryComponent|TestAssignRowMassWithinSlack|TestBuildLPWritesStandardForm' ./internal/oracle/ ./internal/lp/ ./internal/core/ ./internal/cluster/ ./internal/serve/

## drift: the drift correctness gate — the metamorphic invariance suites
## (arm relabeling, scenario time shift), the learner's checkpoint/restore
## cycle deciding what the uninterrupted engine decides, a request's drawn
## distribution surviving a checkpoint, and the simulator's drift script
## (an outage evicting running streams, a handover re-pointing the
## pending queue, a drift run deterministic and startable mid-horizon),
## all with pinned seeds under the race detector. Drift runs in the
## simulator only: the daemon installs no drift script.
drift:
	$(GO) test -race -count=1 -v -run \
		'TestMetamorphic|TestTimeShiftMetamorphic|TestCheckpointResumeDecisions|TestDrawnOutcomesSurviveCheckpoint|TestOutageEvictsRunningStreams|TestHandoverMovesPendingQueue|TestDriftRunDeterministic|TestDriftMidHorizonStart' \
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
## firing every 4 slots on a loaded 2-shard cluster, the max tick pause
## must stay within 5x the median (10ms absolute floor), under the race
## detector. A failure here means a checkpoint write landed back on the
## cluster clock.
tick-jitter:
	$(GO) test -race -count=1 -v -run 'TestTickPauseBoundWhileCheckpointing' ./internal/cluster/

## fuzz: seed-corpus regression then a short fuzzing budget (FuzzOracleLP,
## the differential behind the simplex's pricing, gets twice the others').
## FuzzCheckpointRestore's seeds are whole checkpoints (up to 22 KB), and
## the default 60 s minimization of each new input would eat its budget.
fuzz:
	$(GO) test -v -run 'FuzzParse|FuzzSolveInteger' ./internal/lp/
	$(GO) test -v -run 'FuzzOracleLP|FuzzDirtySet' ./internal/oracle/
	$(GO) test -v -run 'FuzzBatchDecode' ./internal/serve/
	$(GO) test -v -run 'FuzzScenarioDecode|FuzzScenarioV1Decode' ./internal/scenario/
	$(GO) test -v -run 'FuzzCheckpointRestore' ./internal/cluster/
	$(GO) test -fuzz 'FuzzParse' -fuzztime 30s ./internal/lp/
	$(GO) test -fuzz 'FuzzSolveInteger' -fuzztime 30s ./internal/lp/
	$(GO) test -fuzz 'FuzzOracleLP' -fuzztime 60s ./internal/oracle/
	$(GO) test -fuzz 'FuzzDirtySet' -fuzztime 30s ./internal/oracle/
	$(GO) test -fuzz 'FuzzBatchDecode$$' -fuzztime 30s ./internal/serve/
	$(GO) test -fuzz 'FuzzBatchDecodeMatchesReference' -fuzztime 30s ./internal/serve/
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
