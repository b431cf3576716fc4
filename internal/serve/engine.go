// Package serve is the admission engine one scheduler shard runs:
// requests buffer into the current scheduling slot, and each Tick runs
// the paper's DynamicRR against live per-station capacity state,
// replaying the cached decision of every LP-PT component whose input did
// not change since an earlier tick. An engine runs no goroutine: it is
// two locks — the planner lock every call that reads or moves the planner
// takes, and the door lock every submission takes — and one request table
// (table.go) both write and status lookups read, so every state change
// happens inside a call, on the caller's goroutine. Bandit arm statistics
// and in-flight assignments snapshot into a Checkpoint (checkpoint.go) so
// a restarted daemon resumes learning instead of resetting its
// successive-elimination state. The engine has no clock, HTTP surface or
// checkpoint file of its own: internal/cluster owns all three, and a
// single engine is served as a 1-shard cluster.
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
	"mecoffload/internal/dist"
	"mecoffload/internal/mec"
	"mecoffload/internal/oracle"
	"mecoffload/internal/sim"
)

// Errors returned by the engine's public API.
var (
	ErrStopped  = errors.New("serve: engine stopped")
	ErrDraining = errors.New("serve: engine draining, not accepting requests")
	ErrBadSpec  = errors.New("serve: invalid request spec")
)

// Config parameterizes New.
type Config struct {
	// Net is the MEC topology to serve (required).
	Net *mec.Network
	// DynamicRR tunes the per-slot scheduler. The engine constructs it
	// itself so a checkpointed learner can be restored into it, and it
	// refuses a custom Policy or Learner: the engine checkpoints its
	// learner, and only the paper's successive elimination can snapshot.
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
	// updated with the globally aggregated slot reward rather than its own
	// shard's (a learner updates only in a slot where it played an arm).
	DeferFeedback bool
	// RetrySeed is ignored: the engine answers no HTTP request, and the
	// cluster keeps the one Retry-After jitter stream. bench/ladder.go,
	// its sole setter, still compiles against it.
	RetrySeed int64
	// TraceWriter, when non-nil, receives one line per slot in the same
	// sim.WriteTraceLine format as arsim -trace. The lines are not arsim's:
	// the engine writes every slot, with the pending depth taken before
	// expiry, where arsim writes only the slots its scheduler ran, with the
	// queue after expiry. The line is written inside Tick; a cluster ticks
	// its shards one after another, so their lines reach a shared sink in
	// shard order.
	TraceWriter io.Writer
	// Logf, when non-nil, receives operational log lines (scheduler
	// errors, compaction).
	Logf func(format string, args ...any)
	// CompactAfter is the floor under the planner's compaction: an
	// admission that would grow the planner's arrays first drops their
	// settled entries in place, when at least half of them and more than
	// CompactAfter are settled (default 0).
	CompactAfter int
	// DoorCapacity bounds the requests waiting at the door for the
	// planner; once it is full, each arrival sheds the request with the
	// lowest expected reward, the newest among equal ones (default 8192).
	DoorCapacity int
	// MaxPending bounds the pending queue: the door's drain at slot start
	// stops once this many requests await scheduling, which is the
	// backpressure signal that lets the door fill and shed (default
	// 16384). Flush and Drain are not subject to it.
	MaxPending int
	// StepChecker, when set, is installed on the planner and runs the
	// oracle's invariant checks after every slot; a violation surfaces as
	// a slot error (the slot's requests stay pending and SlotErrors
	// increments). Leave nil for no checking — unless the MEC_ORACLE
	// environment variable is 1/true, which installs
	// oracle.EngineChecker by default.
	StepChecker sim.StepChecker
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
// belongs to whichever call holds mu, the door's buffer to whichever call
// holds door — a batch appending to it, or a planner-lock holder taking
// from it — and the two sides share the request table. The lock order is
// mu, then door, then the table's; a batch at the door never takes mu, so
// a submission never waits for a slot.
type Engine struct {
	cfg     Config
	metrics *Metrics
	sched   *sim.DynamicRR
	table   *table

	// nextExt numbers the requests of callers that hand no id down (Submit,
	// SubmitBatch) and stays above every id a caller did hand down
	// (takeID). Only the door lock's holder moves it; it is atomic because
	// snapshotState reads it under the planner lock.
	nextExt atomic.Uint64
	atDoor  atomic.Int64 // batches waiting at the door or inside it

	// The planner lock and what it guards.
	mu      sync.Mutex
	planner *sim.Engine
	res     *core.Result
	pending []int
	slot    int
	settled int   // decided requests still occupying planner slices
	keep    []int // compact's scratch: the planner indices it keeps
	// admittedBuf is runSlot's reusable request-id scratch for the
	// DecisionObserver; valid only until the next slot by contract.
	admittedBuf []uint64
	// taken is drainDoor's spare storage for the entries it takes; it
	// trades places with the door's buffer on every full take.
	taken []ingestEntry
	// reqChunk and arena are where build carves the planner's requests and
	// their distributions from, and onBuild, when set, sees every build
	// (a test's observer).
	reqChunk []mec.Request
	arena    dist.Arena
	onBuild  func(idx int)
	// done closes, under mu, at Stop: the engine's one way to end.
	done chan struct{}

	// The door lock and what it guards (see ingest.go).
	door    sync.Mutex
	intake  doorBuffer
	pumpSeq uint64
	reqBuf  []*liveState  // per-batch live parts, cleared after use
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
	switch {
	case cfg.DynamicRR.Policy != nil:
		return nil, fmt.Errorf("serve: DynamicRR.Policy is set, but the engine checkpoints its learner and only successive elimination can snapshot")
	case cfg.DynamicRR.Learner != nil:
		return nil, fmt.Errorf("serve: DynamicRR.Learner is set, but the engine checkpoints its learner and only successive elimination can snapshot")
	}
	if cfg.SlotLengthMS == 0 {
		cfg.SlotLengthMS = mec.DefaultSlotLengthMS
	}
	if cfg.DoorCapacity <= 0 {
		cfg.DoorCapacity = 8192
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 16384
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
		cfg:     cfg,
		metrics: NewMetrics(),
		table:   newTable(maxRecords, stations),
		done:    make(chan struct{}),
	}

	ck := cfg.Restore
	opts := cfg.DynamicRR
	if ck != nil && ck.Bandit != nil {
		if err := restoreLearner(&opts, ck.Bandit); err != nil {
			return nil, err
		}
	}
	sched, err := sim.NewDynamicRR(opts)
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

// restoreLearner points opts at a checkpointed threshold learner: its
// range, its arm count and its successive-elimination statistics. The
// range is copied as written; one starting at or below 0 MHz is refused,
// because no engine could have played it (NewDynamicRR would quietly
// read (0, 0) as its default range).
func restoreLearner(opts *sim.DynamicRROptions, snap *bandit.LipschitzSnapshot) error {
	if snap.Min <= 0 {
		return fmt.Errorf("serve: restoring bandit: threshold range [%v, %v] MHz starts at or below 0", snap.Min, snap.Max)
	}
	lip, err := bandit.RestoreLipschitz(snap)
	if err != nil {
		return fmt.Errorf("serve: restoring bandit: %w", err)
	}
	opts.MinThresholdMHz, opts.MaxThresholdMHz = snap.Min, snap.Max
	opts.Kappa = lip.Kappa()
	opts.Policy = lip.Policy()
	return nil
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

// WarmStats always returns (0, 0): the slot LP solves cold. It stays
// because bench/trace.go, its sole reader, still compiles against it.
func (e *Engine) WarmStats() (hits, misses uint64) { return 0, 0 }

// IncStats returns the decision cache's counters.
func (e *Engine) IncStats() core.IncStats { return e.sched.IncStats() }

// lock takes the planner lock for a call that needs a running engine; once
// the engine has stopped it fails with ErrStopped, holding nothing.
func (e *Engine) lock() error {
	e.mu.Lock()
	if !e.Alive() {
		e.mu.Unlock()
		return ErrStopped
	}
	return nil
}

// Status looks up a request's current record; an id the table never saw,
// or has evicted, is unknown (false, nil error). The table closes at Stop,
// after which lookups fail with ErrStopped.
func (e *Engine) Status(id uint64) (RequestRecord, bool, error) { return e.table.status(id) }

// Gauges returns the per-station occupancy gauges, by station index.
func (e *Engine) Gauges() []StationGauge { return e.table.gauges() }

// Tick advances the engine by one scheduling slot, on the caller's
// goroutine. The engine has no clock of its own: the cluster's clock (or
// a test) calls it.
func (e *Engine) Tick() error {
	if err := e.lock(); err != nil {
		return err
	}
	defer e.mu.Unlock()
	e.runSlot()
	return nil
}

// Snapshot captures the engine's live state as an in-memory checkpoint.
// It reflects only requests the planner has seen: callers who need the
// door's residue included (the cluster checkpoint path) must Flush first.
// After Stop it fails with ErrStopped.
func (e *Engine) Snapshot() (*Checkpoint, error) {
	if err := e.lock(); err != nil {
		return nil, err
	}
	defer e.mu.Unlock()
	return e.snapshotState()
}

// DeliverFeedback hands the scheduler a slot's (externally aggregated)
// realized reward. Only meaningful with Config.DeferFeedback set.
func (e *Engine) DeliverFeedback(slot int, reward float64) error {
	if err := e.lock(); err != nil {
		return err
	}
	defer e.mu.Unlock()
	e.sched.Feedback(slot, reward)
	return nil
}

// Drain closes intake (Submit fails with ErrDraining) and moves every
// request the door already accepted into the planner. The engine keeps
// running: its caller ticks it, deciding what is pending and releasing
// what runs, until it is Idle, and ends it with Stop.
func (e *Engine) Drain() error {
	if err := e.lock(); err != nil {
		return err
	}
	defer e.mu.Unlock()
	// The flag closes the door first, so the forced drain that follows
	// hands the planner everything the door accepted: the residue is
	// decided (and in any later Snapshot), not dropped.
	e.metrics.drainFlag.Store(true)
	e.drainDoor(true)
	return nil
}

// Idle reports whether the planner holds no pending request and no
// running stream: what a drain waits for. Requests still at the door are
// not counted; after Drain there are none.
func (e *Engine) Idle() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.pending) == 0 && e.planner.NumRunning() == 0
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

// Draining reports whether intake is closed.
func (e *Engine) Draining() bool { return !e.Alive() || e.metrics.drainFlag.Load() }

// Alive reports whether the engine has not been stopped.
func (e *Engine) Alive() bool {
	select {
	case <-e.done:
		return false
	default:
		return true
	}
}
