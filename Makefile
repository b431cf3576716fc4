# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# commands; `make verify` is the tier-1 gate a change must keep green.

GO ?= go

.PHONY: verify build test race oracle cluster-parity incremental-parity drift bench bench-smoke tick-jitter fuzz lint fmt vet clean

## verify: tier-1 gate — build everything, vet, gofmt check, full tests.
verify: build vet fmt-check test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race: concurrency-sensitive packages under the race detector
## (shortened experiment profile, same as the CI race job).
race:
	$(GO) test -race -short ./internal/lp/... ./internal/core/... ./internal/experiment/... ./internal/sim/... ./internal/serve/... ./internal/cluster/... ./internal/oracle/... ./cmd/arserved/...

## cluster-parity: the sharding correctness gate — the oracle replay
## differential proving 1-, 2-, and 8-shard clusters emit identical
## decision streams, plus the reshard-restore contracts (a stream older
## than the router's window and the version-1 manifest fixture among
## them), the migration-race contract, the saturated batched intake
## staying inside its queue bounds and accounting for every accepted
## request at 1 and 2 shards, one interleaving of batch and single
## submits giving one outcome on every run, and the goroutine census (an
## engine runs none, a cluster runs shards − 1), all under the race
## detector (same as the CI cluster-parity job).
cluster-parity:
	$(GO) test -race -count=1 -run 'TestClusterParity|TestClusterCheckpointReshard|TestLiveRequestOutlivesRouterEntry|TestManifestV1Restores|TestMigrationRace|TestAsyncCheckpointByteEquivalence|TestAsyncCheckpointCrashRestore|TestSaturatedIngestConserves|TestInterleavedIntakeIsDeterministic|TestEngineRunsNoGoroutines|TestClusterGoroutines' ./internal/cluster/ ./internal/serve/

## incremental-parity: the decision path's correctness gate — the oracle
## differential proving that DynamicRR as shipped (clean components
## replay their cached decision) emits a decision stream identical to the
## oracle's reference, which re-solves every component every slot; the
## seed-before-put ordering rule of the offline passes; the dirty-set and
## second-sighting edge-case suite; the bounded name table; the
## default 1-shard cluster against the reference on the steady wave; and
## an engine that compacts every few slots against one that never does —
## all under the race detector (same as the CI incremental-parity job).
incremental-parity:
	$(GO) test -race -count=1 -run 'TestDiffIncrementalFull|TestApproSeedsResolveBeforeThePassStoresAny|TestIncCache|TestOnlineNamesBoundedByComponent|TestDefaultClusterReusesDecisions|TestCompactionIsInvisible' ./internal/oracle/ ./internal/core/ ./internal/cluster/ ./internal/serve/

## drift: the adaptivity correctness gate — seeded regret-bound
## assertions proving the drift-aware policies beat stationary UCB1 on
## every drifting scenario (and stay within tolerance on the i.i.d.
## control), the metamorphic invariance suites (arm relabeling, scenario
## time shift), the drift-policy checkpoint/restore cycle, the cluster
## mobility edge-case parity differentials, and a handed-over request's
## station and drawn distribution surviving checkpoint and Extract, all
## with pinned seeds under the race detector (same as the CI drift-parity
## job).
drift:
	$(GO) test -race -count=1 -run \
		'TestDriftAware|TestDriftTraceStructure|TestDriftPoliciesRecoverFromShift|TestMetamorphic|TestTimeShiftMetamorphic|TestCheckpointResumeDriftPolicies|TestClusterHandoverAcrossPartition|TestClusterOutageWithInflightStreams|TestClusterCandidateShrinksEmpty|TestHandoverSurvivesCheckpointAndExtract|TestDrawnOutcomesSurviveCheckpointAndExtract' \
		./internal/experiment/ ./internal/bandit/ ./internal/scenario/ ./internal/serve/ ./internal/cluster/

## oracle: differential oracle suite plus the mutation smoke check,
## mirroring the CI oracle job — the oraclemutant build must FAIL the
## suite, proving the oracle still catches seeded capacity bugs.
oracle:
	MEC_ORACLE=1 $(GO) test -count=1 ./internal/oracle/...
	$(GO) build -tags oraclemutant ./...
	@if $(GO) test -count=1 -tags oraclemutant \
		-run 'TestHeuRespectsCapacityAndLatency|TestDynamicRRInvariantsOnline' \
		./internal/oracle/ >/dev/null 2>&1; then \
		echo "seeded capacity mutant passed the oracle suite" >&2; exit 1; fi
	@echo "oracle: mutant caught"

## bench: the repository benchmark — the paper's slot cycle end to end
## on the four workloads BENCHMARK.json declares, with per-layer figures.
## It is the one timing ledger; the exact allocation budgets of a daemon
## slot are `go test` tests (TestServeSlotAllocBudget,
## TestRunSlotIdleNoAllocs and the other AllocsPerRun pins).
bench:
	$(GO) run ./bench

## bench-smoke: compile-and-run-once pass over the benchmark harness,
## mirroring the CI bench-smoke job. No regression gate here: at
## -benchtime 1x neither timings nor allocation counts mean anything
## (`make bench` measures, the AllocsPerRun tests pin). The one check
## that does run is BenchmarkClusterSweepBacklog's own: sweep- and
## checkpoint-slot tick time flat within 2x from 1k to 100k settled
## spanning requests of routing history. BenchmarkBuildLP (the slot LP's
## builder, alone and beside its solve, on three shapes) lives in
## internal/core because it calls the unexported builder, and
## BenchmarkDecodeBatch (the NDJSON line scanner beside its encoding/json
## reference, on the three bodies the end-to-end workloads post) in
## internal/serve because the reference is a test file there.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkAppro|BenchmarkDynamicRRRun|BenchmarkLPColdVsWarm|BenchmarkServeSlot|BenchmarkServeIngest|BenchmarkClusterServeSlot|BenchmarkClusterTickJitter|BenchmarkClusterSweepBacklog|BenchmarkIncrementalServeSlot|BenchmarkDriftAdaptivity' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkBuildLP' -benchtime 1x -benchmem ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkDecodeBatch' -benchtime 1x -benchmem ./internal/serve/

## tick-jitter: the stop-the-world smoke gate — with async checkpoints
## firing every 4 slots on a loaded 2-shard cluster, the max tick pause
## must stay within 5x the median (10ms absolute floor), under the race
## detector (same as the CI tick-jitter job). A failure here means a
## checkpoint write landed back on the cluster clock.
tick-jitter:
	$(GO) test -race -count=1 -run 'TestTickPauseBoundWhileCheckpointing' ./internal/cluster/

## fuzz: seed-corpus regression then a short fuzzing budget.
fuzz:
	$(GO) test -run 'FuzzParse' ./internal/lp/
	$(GO) test -run 'FuzzOracleLP|FuzzDirtySet' ./internal/oracle/
	$(GO) test -run 'FuzzBatchDecode' ./internal/serve/
	$(GO) test -run 'FuzzScenarioDecode|FuzzScenarioV1Decode' ./internal/scenario/
	$(GO) test -fuzz 'FuzzParse' -fuzztime 30s ./internal/lp/
	$(GO) test -fuzz 'FuzzOracleLP' -fuzztime 30s ./internal/oracle/
	$(GO) test -fuzz 'FuzzDirtySet' -fuzztime 30s ./internal/oracle/
	$(GO) test -fuzz 'FuzzBatchDecode$$' -fuzztime 30s ./internal/serve/
	$(GO) test -fuzz 'FuzzBatchDecodeMatchesReference' -fuzztime 30s ./internal/serve/
	$(GO) test -fuzz 'FuzzScenarioDecode$$' -fuzztime 30s ./internal/scenario/

## lint: staticcheck (correctness checks only, see staticcheck.conf) and
## govulncheck, both at pinned versions via the module proxy — nothing is
## added to go.mod. Needs network access; CI runs the same pins.
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
	rm -f mecoffload.test bench-smoke.txt
