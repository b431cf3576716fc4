// Package serve is the admission engine one scheduler shard runs:
// requests buffer into the current scheduling slot, and each Tick runs a
// sim.Scheduler (the paper's DynamicRR by default) against live
// per-station capacity state, reusing the warm-started LP-PT bases across
// consecutive ticks. An engine runs no goroutine: it is two locks — the
// planner lock every call that reads or moves the planner takes, and the
// door lock the batch path takes — and one request table (table.go) both
// write and status lookups read, so every state change happens inside a
// call, on the caller's goroutine. Bandit arm statistics and in-flight
// assignments snapshot into a Checkpoint (checkpoint.go) so a restarted
// daemon resumes learning instead of resetting its successive-elimination
// state. The engine has no clock, HTTP surface or checkpoint file of its
// own: internal/cluster owns all three, and a single engine is served as
// a 1-shard cluster.
package serve

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"

	"mecoffload/internal/bandit"
	"mecoffload/internal/core"
	"mecoffload/internal/mec"
	"mecoffload/internal/oracle"
	"mecoffload/internal/rnd"
	"mecoffload/internal/sim"
)

// Errors returned by the engine's public API.
var (
	ErrStopped  = errors.New("serve: engine stopped")
	ErrDraining = errors.New("serve: engine draining, not accepting requests")
	ErrBadSpec  = errors.New("serve: invalid request spec")
	// ErrNotPending reports that Extract found no undecided request with
	// the given id: it already scheduled, departed, expired, shed, or
	// never existed. Migration treats it as a benign abort.
	ErrNotPending = errors.New("serve: request is not pending")
)

// Config parameterizes New.
type Config struct {
	// Net is the MEC topology to serve (required).
	Net *mec.Network
	// SchedulerName selects the per-slot scheduler: "dynamicrr"
	// (default), "ocorp", "greedy", or "heukkt". The engine constructs
	// the scheduler itself so a checkpointed bandit state can be restored
	// into it.
	SchedulerName string
	// DynamicRR tunes the default scheduler; ignored for baselines.
	DynamicRR sim.DynamicRROptions
	// SlotLengthMS is the model slot length (default
	// mec.DefaultSlotLengthMS); it is independent of the wall-clock tick
	// cadence, so a daemon can replay model time faster or slower.
	SlotLengthMS float64
	// Rng drives demand realization and spec defaults. Required.
	Rng *rand.Rand
	// Restore, when non-nil, seeds the engine from a checkpoint: the
	// cluster layer hands each shard its slice of a composed manifest.
	// State leaves the same way it arrives — Snapshot returns the
	// in-memory checkpoint the cluster persists.
	Restore *Checkpoint
	// DeferFeedback suppresses the planner's in-slot bandit feedback;
	// the caller delivers slot rewards explicitly via DeliverFeedback.
	// The cluster defers feedback so every shard's threshold learner is
	// updated with the globally aggregated slot reward, keeping learners
	// in lockstep across shard counts.
	DeferFeedback bool
	// RetrySeed seeds the engine-scoped Retry-After jitter stream
	// (internal/rnd label "retry-after"), making overload responses
	// reproducible in tests and replay. The zero seed is a valid,
	// deterministic stream of its own.
	RetrySeed int64
	// TraceWriter, when non-nil, receives one line per slot in arsim's
	// trace format, so offline and online runs are diffable.
	TraceWriter io.Writer
	// Logf, when non-nil, receives operational log lines (scheduler
	// errors, compaction).
	Logf func(format string, args ...any)
	// CompactAfter bounds the planner's decided-request backlog: once
	// more than this many settled requests accumulate, the engine rebuilds
	// its planner state from the live set (default 4096).
	CompactAfter int
	// RingCapacity bounds the batched-ingest SPSC ring between the door
	// and the planner (default 4096, rounded up to a power of two).
	RingCapacity int
	// StageCapacity bounds the door's reward-sorted overflow stage;
	// once the ring and the stage are both full, the lowest
	// expected-reward request sheds (default 4096).
	StageCapacity int
	// MaxPending bounds the pending queue: the ring drain at slot start
	// and before a single-request submit stops once this many requests
	// await scheduling, which is the backpressure signal that engages the
	// shedding stage (default 16384). Flush, and the request a
	// single-request submit admits, are not subject to it.
	MaxPending int
	// BatchQueue bounds how many batches may wait at the door besides
	// the one inside it; the next one fails SubmitBatch with ErrSaturated
	// (default 8).
	BatchQueue int
	// StepChecker, when set, is installed on the planner and runs the
	// oracle's invariant checks after every slot; a violation surfaces as
	// a slot error (the slot's requests stay pending and SlotErrors
	// increments). Leave nil for no checking — unless the MEC_ORACLE
	// environment variable is 1/true, which installs
	// oracle.EngineChecker by default.
	StepChecker sim.StepChecker
	// Drift, when non-nil, installs a scripted non-stationarity program
	// (station outages, mobility handovers; station ids are indices into
	// Net) on the planner. Streams running on a station when its outage
	// begins are evicted — their records move to StateEvicted, rewards
	// already credited at admission stay credited. The script is config,
	// not checkpointed state: a restored engine re-installs it and skips
	// transitions already in the past, but an outage window straddling
	// the restart is not re-applied (capacity scales live on Net, which
	// a fresh process rebuilds nominal).
	Drift *sim.Drift
	// SlotObserver, when set, receives every slot report inside Tick,
	// after the slot has settled but before metrics publish. It runs
	// under the planner lock and must not call back into the engine.
	// Replay harnesses use it to capture per-slot admission decisions for
	// parity checks.
	SlotObserver func(sim.SlotReport)
	// DecisionObserver, when set, receives each slot's admitted request
	// ids (in admission order) and the slot's realized reward, inside
	// Tick after settlement. It runs under the planner lock and must not
	// call back into the engine. The admitted slice is scratch the
	// engine reuses on its next slot — copy it if it must outlive the
	// inter-tick window. The cluster uses it to aggregate shard rewards
	// into the global feedback signal and to build parity dumps; the ids
	// are the ones it submitted the requests under.
	DecisionObserver func(slot int, admitted []uint64, reward float64)
}

// Engine is the admission daemon core. It runs no goroutine: the planner
// belongs to whichever call holds mu, the stage to whichever batch holds
// door, and the two meet in the ingest ring (produced under door, consumed
// under mu) and the request table. The lock order is mu, then door, then
// the table's; a batch at the door never takes mu, so a batch submission
// never waits for a slot.
type Engine struct {
	cfg     Config
	metrics *Metrics
	sched   sim.Scheduler
	table   *table

	// retryRng is the engine-scoped Retry-After jitter stream, seeded
	// from Config.RetrySeed via internal/rnd so overload behaviour
	// replays deterministically. Guarded by retryMu: HTTP handlers hit
	// it concurrently.
	retryMu  sync.Mutex
	retryRng *rand.Rand

	// nextExt numbers the requests of callers that hand no id down (Submit,
	// SubmitBatch) and stays above every id a caller did hand down
	// (takeID); it is atomic because both locks' holders move it.
	nextExt     atomic.Uint64
	ring        *ingestRing
	stagedDepth atomic.Int64
	atDoor      atomic.Int64 // batches waiting at the door or inside it

	// The planner lock and what it guards.
	mu      sync.Mutex
	planner *sim.Engine
	res     *core.Result
	pending []int
	slot    int
	settled int // decided requests still occupying planner slices
	drain   bool
	// admittedBuf is runSlot's reusable request-id scratch for the
	// DecisionObserver; valid only until the next slot by contract.
	admittedBuf []uint64
	// done closes, under mu, when the engine exits: in the call that
	// completes a drain, or at Stop. drainedSnap is the state a drain left
	// behind, never modified after.
	done        chan struct{}
	drainedSnap *Checkpoint

	// The door lock and what it guards (see ingest.go).
	door    sync.Mutex
	stage   stageBuffer
	pumpSeq uint64
	shedBuf []ingestEntry // per-batch shed victims, reused across batches
}

// New builds an engine, restoring checkpointed state from cfg.Restore.
func New(cfg Config) (*Engine, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("serve: nil network")
	}
	if cfg.Rng == nil {
		return nil, fmt.Errorf("serve: nil rng")
	}
	if cfg.SchedulerName == "" {
		cfg.SchedulerName = "dynamicrr"
	}
	if cfg.SlotLengthMS == 0 {
		cfg.SlotLengthMS = mec.DefaultSlotLengthMS
	}
	if cfg.CompactAfter <= 0 {
		cfg.CompactAfter = 4096
	}
	if cfg.RingCapacity <= 0 {
		cfg.RingCapacity = 4096
	}
	if cfg.StageCapacity <= 0 {
		cfg.StageCapacity = 4096
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 16384
	}
	if cfg.BatchQueue <= 0 {
		cfg.BatchQueue = 8
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.StepChecker == nil && oracleEnv() {
		cfg.StepChecker = oracle.EngineChecker()
	}

	stations := make([]StationGauge, cfg.Net.NumStations())
	for i := range stations {
		stations[i] = StationGauge{Station: i, CapacityMHz: cfg.Net.Capacity(i)}
	}
	e := &Engine{
		cfg:      cfg,
		metrics:  NewMetrics(),
		table:    newTable(maxRecords, stations),
		done:     make(chan struct{}),
		ring:     newIngestRing(cfg.RingCapacity),
		retryRng: rnd.New(cfg.RetrySeed, "retry-after"),
	}

	ck := cfg.Restore
	var banditSnap *bandit.LipschitzSnapshot
	if ck != nil {
		banditSnap = ck.Bandit
	}
	sched, err := buildScheduler(cfg.SchedulerName, cfg.DynamicRR, banditSnap)
	if err != nil {
		return nil, err
	}
	e.sched = sched

	if ck != nil {
		e.nextExt.Store(ck.NextExternalID)
		e.metrics.restoreTotals(ck.Totals)
		if err := e.install(ck); err != nil {
			return nil, fmt.Errorf("serve: restoring checkpoint: %w", err)
		}
	} else if err := e.installEmpty(); err != nil {
		return nil, err
	}
	return e, nil
}

// buildScheduler constructs the named scheduler, seeding DynamicRR's
// threshold learner from a checkpointed snapshot when one is given.
func buildScheduler(name string, opts sim.DynamicRROptions, snap *bandit.LipschitzSnapshot) (sim.Scheduler, error) {
	switch name {
	case "dynamicrr":
		if snap != nil {
			lip, err := bandit.RestoreLipschitz(snap)
			if err != nil {
				return nil, fmt.Errorf("serve: restoring bandit: %w", err)
			}
			opts.MinThresholdMHz, opts.MaxThresholdMHz = 0, 0
			if snap.Min > 0 {
				opts.MinThresholdMHz, opts.MaxThresholdMHz = snap.Min, snap.Max
			}
			opts.Kappa = lip.Kappa()
			opts.Policy = lip.Policy()
		}
		return sim.NewDynamicRR(opts)
	case "ocorp":
		return &sim.OnlineOCORP{}, nil
	case "greedy":
		return &sim.OnlineGreedy{}, nil
	case "heukkt":
		return &sim.OnlineHeuKKT{}, nil
	default:
		return nil, fmt.Errorf("serve: unknown scheduler %q", name)
	}
}

// oracleEnv reports whether the MEC_ORACLE environment variable asks for
// runtime invariant checking.
func oracleEnv() bool {
	switch os.Getenv("MEC_ORACLE") {
	case "1", "true", "on":
		return true
	}
	return false
}

// Start does nothing: the engine runs no goroutine, and every state change
// happens inside a call. It stays because the benchmark harness calls it.
func (e *Engine) Start() {}

// Metrics returns the engine's metric surface.
func (e *Engine) Metrics() *Metrics { return e.metrics }

// SchedulerName returns the active scheduler's name.
func (e *Engine) SchedulerName() string { return e.sched.Name() }

// WarmStats returns the LP warm-start cache statistics (zero for
// schedulers without an LP path).
func (e *Engine) WarmStats() (hits, misses uint64) {
	if d, ok := e.sched.(*sim.DynamicRR); ok {
		return d.Warm().Stats()
	}
	return 0, 0
}

// IncStats returns the decision cache's counters (all zero for
// schedulers other than DynamicRR).
func (e *Engine) IncStats() core.IncStats {
	if d, ok := e.sched.(*sim.DynamicRR); ok {
		return d.IncStats()
	}
	return core.IncStats{}
}

// BanditSnapshot captures the DynamicRR threshold learner's state; it
// errors for baselines and for custom learners that cannot snapshot.
func (e *Engine) BanditSnapshot() (*bandit.LipschitzSnapshot, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	d, ok := e.sched.(*sim.DynamicRR)
	if !ok || d.Bandit() == nil {
		return nil, fmt.Errorf("serve: scheduler %s has no snapshottable bandit", e.sched.Name())
	}
	return d.Bandit().Snapshot()
}

// lock takes the planner lock for a call that needs a running engine; once
// the engine has exited it fails with ErrStopped, holding nothing.
func (e *Engine) lock() error {
	e.mu.Lock()
	if !e.Alive() {
		e.mu.Unlock()
		return ErrStopped
	}
	return nil
}

// Submit queues a request for the next scheduling slot under the engine's
// own numbering and returns its id.
func (e *Engine) Submit(spec RequestSpec) (uint64, int, error) {
	return e.submit(0, false, spec)
}

// SubmitAs is Submit under an id the caller chose: the cluster's id, which
// the row, the DecisionObserver report, Extract, Snapshot and Status then
// all carry. The id must not name a request live in this engine; one that
// left by Extract may come back under it.
func (e *Engine) SubmitAs(id uint64, spec RequestSpec) (int, error) {
	_, slot, err := e.submit(id, true, spec)
	return slot, err
}

// submit drains the ring before it admits, so below the MaxPending bound
// the planner sees a request after every batch accepted before it. An id
// of the engine's own is allocated only once the planner took the
// request, so a refused spec consumes none.
func (e *Engine) submit(id uint64, numbered bool, spec RequestSpec) (uint64, int, error) {
	if err := e.lock(); err != nil {
		return 0, 0, err
	}
	defer e.mu.Unlock()
	e.drainRing(false)
	idx, err := e.admit(&spec)
	if err != nil {
		e.metrics.Rejected.Inc()
		return 0, 0, err
	}
	id = e.takeID(id, numbered)
	req := newRequest(id, e.slot, spec)
	e.table.mu.Lock()
	e.table.insert(req)
	req = e.table.rows[id] // its earlier row, revived, when the id is back from an Extract
	e.table.mu.Unlock()
	e.table.attach(req, idx, e.slot)
	e.metrics.PendingDepth.Store(int64(len(e.pending)))
	return id, e.slot, nil
}

// takeID settles a new request's id: the engine's next when the caller
// numbered nothing, else the caller's, with the engine's own numbering kept
// above it.
func (e *Engine) takeID(id uint64, numbered bool) uint64 {
	if !numbered {
		return e.nextExt.Add(1) - 1
	}
	for next := e.nextExt.Load(); id >= next; next = e.nextExt.Load() {
		if e.nextExt.CompareAndSwap(next, id+1) {
			break
		}
	}
	return id
}

// Status looks up a request's current record; an id the table never saw,
// or has evicted, is unknown (false, nil error). The table outlives the
// engine's exit — a drained engine still answers — and closes only at
// Stop, after which lookups fail with ErrStopped.
func (e *Engine) Status(id uint64) (RequestRecord, bool, error) { return e.table.status(id) }

// Gauges returns the per-station occupancy gauges, by station index.
func (e *Engine) Gauges() []StationGauge { return e.table.gauges() }

// Tick advances the engine by one scheduling slot, on the caller's
// goroutine. The engine has no clock of its own: the cluster's epoch
// workers (or a test) call it.
func (e *Engine) Tick() error {
	if err := e.lock(); err != nil {
		return err
	}
	defer e.mu.Unlock()
	e.runSlot()
	e.exitIfDrained()
	return nil
}

// Snapshot captures the engine's live state as an in-memory checkpoint.
// It reflects only requests the planner has seen:
// callers who need batched-ingest residue included (the cluster
// checkpoint path) must Flush first. An engine that drained to completion
// keeps answering with the state it exited in (shared between calls: read,
// do not modify), so a checkpoint taken after a clean drain still carries
// its learner and counters; one Stop halted first fails with ErrStopped.
func (e *Engine) Snapshot() (*Checkpoint, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.Alive() {
		return e.snapshotState()
	}
	if e.drainedSnap == nil {
		return nil, ErrStopped
	}
	return e.drainedSnap, nil
}

// Extract removes a pending (undecided) request from the engine and
// returns its spec and arrival slot — the prepare half of the cluster's
// two-phase migration handoff. It fails with ErrNotPending when the
// request already scheduled, terminated, or is unknown, which makes a
// stale migration proposal a benign abort rather than a double-admit.
func (e *Engine) Extract(id uint64) (RequestSpec, int, error) {
	if err := e.lock(); err != nil {
		return RequestSpec{}, 0, err
	}
	defer e.mu.Unlock()
	return e.extract(id)
}

// DeliverFeedback hands the scheduler a slot's (externally aggregated)
// realized reward. Only meaningful with Config.DeferFeedback set; a no-op
// for schedulers without learning feedback.
func (e *Engine) DeliverFeedback(slot int, reward float64) error {
	if err := e.lock(); err != nil {
		return err
	}
	defer e.mu.Unlock()
	if fb, ok := e.sched.(sim.FeedbackScheduler); ok {
		fb.Feedback(slot, reward)
	}
	return nil
}

// Drain stops intake (Submit fails with ErrDraining), moves every request
// the door already accepted into the planner, and lets the engine run
// until every pending request is decided and every stream departs. The
// call that sees that — this one, or a later Tick — exits the engine.
func (e *Engine) Drain() error {
	if err := e.lock(); err != nil {
		return err
	}
	defer e.mu.Unlock()
	if !e.drain {
		// The flag closes the door first, so the forced drain that follows
		// hands the planner everything the door accepted: the residue is
		// decided (and in any later Snapshot), not dropped.
		e.metrics.drainFlag.Store(true)
		e.drainRing(true)
		e.drain = true
	}
	e.exitIfDrained()
	return nil
}

// Stop exits the engine at once, without waiting for in-flight streams; a
// caller that wants the state kept takes a Snapshot first. The request
// table closes too.
func (e *Engine) Stop() error {
	e.mu.Lock()
	if e.Alive() {
		close(e.done)
	}
	e.mu.Unlock()
	e.table.mu.Lock()
	e.table.closed = true
	e.table.mu.Unlock()
	return nil
}

// Done is closed when the engine has exited (drain complete or stopped).
func (e *Engine) Done() <-chan struct{} { return e.done }

// Draining reports whether intake is closed.
func (e *Engine) Draining() bool { return !e.Alive() || e.metrics.drainFlag.Load() }

// Alive reports whether the engine has not exited yet.
func (e *Engine) Alive() bool {
	select {
	case <-e.done:
		return false
	default:
		return true
	}
}
