// Package serve is the admission engine one scheduler shard runs:
// requests buffer into the current scheduling slot, and each Tick runs a
// sim.Scheduler (the paper's DynamicRR by default) against live
// per-station capacity state, reusing the warm-started LP-PT bases across
// consecutive ticks. Mutable observability state is sharded across
// goroutine-owned shards (shard.go); bandit arm statistics and in-flight
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
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mecoffload/internal/bandit"
	"mecoffload/internal/core"
	"mecoffload/internal/dist"
	"mecoffload/internal/mec"
	"mecoffload/internal/oracle"
	"mecoffload/internal/rnd"
	"mecoffload/internal/sim"
	"mecoffload/internal/workload"
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

// TaskSpec is one pipeline stage of a submitted request.
type TaskSpec struct {
	Name     string  `json:"name"`
	OutputKb float64 `json:"outputKb"`
	WorkMS   float64 `json:"workMS"`
}

// OutcomeSpec is one (rate, reward) outcome of a submitted request's
// demand distribution.
type OutcomeSpec struct {
	RateMBs float64 `json:"rateMBs"`
	Prob    float64 `json:"prob"`
	Reward  float64 `json:"reward"`
}

// RequestSpec is the JSON body of POST /v1/requests. Zero-valued fields
// take the paper's workload defaults: a 200 ms deadline, a 20-slot hold,
// the canonical four-stage AR pipeline, and a five-point demand
// distribution over 30-50 MB/s.
type RequestSpec struct {
	AccessStation int           `json:"accessStation"`
	DeadlineMS    float64       `json:"deadlineMS,omitempty"`
	DurationSlots int           `json:"durationSlots,omitempty"`
	Tasks         []TaskSpec    `json:"tasks,omitempty"`
	Outcomes      []OutcomeSpec `json:"outcomes,omitempty"`
}

// Config parameterizes New.
type Config struct {
	// Net is the MEC topology to serve (required).
	Net *mec.Network
	// SchedulerName selects the per-slot scheduler: "dynamicrr"
	// (default), "local-ratio" (DynamicRR with the LP-free local-ratio
	// fast path on), "ocorp", "greedy", or "heukkt". The engine
	// constructs the scheduler itself so a checkpointed bandit state can
	// be restored into it.
	SchedulerName string
	// DynamicRR tunes the default scheduler; ignored for baselines.
	DynamicRR sim.DynamicRROptions
	// SlotLengthMS is the model slot length (default
	// mec.DefaultSlotLengthMS); it is independent of the wall-clock tick
	// cadence, so a daemon can replay model time faster or slower.
	SlotLengthMS float64
	// Rng drives demand realization and spec defaults. Required.
	Rng *rand.Rand
	// Shards is the number of state shards (default 4, at most one per
	// station).
	Shards int
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
	// MaxRecordsPerShard bounds the status registry (default 65536
	// records per shard; oldest terminal records evict first).
	MaxRecordsPerShard int
	// RingCapacity bounds the batched-ingest SPSC ring between the
	// intake pump and the engine loop (default 4096, rounded up to a
	// power of two).
	RingCapacity int
	// StageCapacity bounds the pump's reward-sorted overflow stage;
	// once the ring and the stage are both full, the lowest
	// expected-reward request sheds (default 4096).
	StageCapacity int
	// MaxPending bounds the loop's pending queue: the loop stops
	// draining the ring once this many requests await scheduling, which
	// is the backpressure signal that engages the shedding stage
	// (default 16384). Single-POST intake is not subject to it.
	MaxPending int
	// BatchQueue bounds the pump's inbox in batches; a full inbox fails
	// SubmitBatch with ErrSaturated (default 8).
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
	// SlotObserver, when set, receives every slot report from the loop
	// goroutine, after the slot has settled but before metrics publish.
	// It must not call back into the engine. Replay harnesses use it to
	// capture per-slot admission decisions for parity checks.
	SlotObserver func(sim.SlotReport)
	// DecisionObserver, when set, receives each slot's admitted external
	// ids (in admission order) and the slot's realized reward, called on
	// the loop goroutine after settlement. It must not call back into
	// the engine. The admitted slice is scratch the engine reuses on its
	// next slot — copy it if it must outlive the inter-tick window. The
	// cluster uses it to aggregate shard rewards into the global
	// feedback signal and to build parity dumps in external id space.
	DecisionObserver func(slot int, admitted []uint64, reward float64)
}

// liveEntry tracks one live (pending or running) request inside the loop.
type liveEntry struct {
	ext     uint64
	spec    RequestSpec
	arrival int
	running bool
}

// Engine is the admission daemon core. All mutable planner state is owned
// by the loop goroutine; other goroutines interact only through channels.
type Engine struct {
	cfg     Config
	metrics *Metrics
	sched   sim.Scheduler
	shards  []*shard

	intake   chan intakeMsg
	control  chan controlMsg
	snapC    chan snapMsg
	extractC chan extractMsg

	// retryRng is the engine-scoped Retry-After jitter stream, seeded
	// from Config.RetrySeed via internal/rnd so overload behaviour
	// replays deterministically. Guarded by retryMu: HTTP handlers hit
	// it concurrently.
	retryMu  sync.Mutex
	retryRng *rand.Rand

	loopDone chan struct{}
	// drainedSnap is the state a fully drained engine left behind: written
	// by the loop as it exits on drain completion, read only after loopDone
	// closes, and never modified again.
	drainedSnap *Checkpoint
	shardStop   sync.Once
	shardsDone  chan struct{}

	// Batched ingest path (see ingest.go). nextExt is atomic because
	// both the loop (single-POST intake) and the pump (batch intake)
	// allocate external ids from it.
	ring        *ingestRing
	batchC      chan batchMsg
	ringC       chan struct{} // pump -> loop: ring became non-empty
	spaceC      chan struct{} // loop -> pump: ring space freed
	pumpDone    chan struct{}
	nextExt     atomic.Uint64
	stagedDepth atomic.Int64

	// Pump-owned state.
	stage   stageBuffer
	pumpSeq uint64
	shedBuf []ingestEntry // per-batch shed victims, reused across batches

	// Loop-owned state.
	planner *sim.Engine
	res     *core.Result
	pending []int
	slot    int
	live    map[int]*liveEntry // internal id -> live request
	settled int                // decided requests still occupying planner slices
	drain   bool
	// admittedExtBuf is runSlot's reusable external-id scratch for the
	// DecisionObserver; valid only until the next slot by contract.
	admittedExtBuf []uint64
}

type intakeMsg struct {
	spec  RequestSpec
	reply chan intakeReply
}

type intakeReply struct {
	id   uint64
	slot int
	err  error
}

type controlKind int

const (
	ctlTick controlKind = iota
	ctlDrain
	ctlStop
	ctlFlushRing
	ctlFeedback
	// ctlTickFeedback fuses a deferred-feedback delivery with the next
	// slot: the loop applies the reward, then runs the slot, all in one
	// control round-trip. The cluster's shard workers use it so
	// tick+feedback cost one epoch barrier instead of two.
	ctlTickFeedback
)

type controlMsg struct {
	kind  controlKind
	reply chan error
	// ctlFeedback / ctlTickFeedback payload (see DeliverFeedback).
	slot   int
	reward float64
}

// snapMsg asks the loop for an in-memory checkpoint of the live state.
type snapMsg struct{ reply chan snapReply }

type snapReply struct {
	ck  *Checkpoint
	err error
}

// extractMsg asks the loop to remove one pending request for cross-shard
// migration.
type extractMsg struct {
	ext   uint64
	reply chan extractReply
}

type extractReply struct {
	spec    RequestSpec
	arrival int
	err     error
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
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if n := cfg.Net.NumStations(); cfg.Shards > n {
		cfg.Shards = n
	}
	if cfg.CompactAfter <= 0 {
		cfg.CompactAfter = 4096
	}
	if cfg.MaxRecordsPerShard <= 0 {
		cfg.MaxRecordsPerShard = 65536
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

	e := &Engine{
		cfg:        cfg,
		metrics:    NewMetrics(),
		intake:     make(chan intakeMsg, 1024),
		control:    make(chan controlMsg),
		snapC:      make(chan snapMsg),
		extractC:   make(chan extractMsg),
		loopDone:   make(chan struct{}),
		shardsDone: make(chan struct{}),
		ring:       newIngestRing(cfg.RingCapacity),
		batchC:     make(chan batchMsg, cfg.BatchQueue),
		ringC:      make(chan struct{}, 1),
		spaceC:     make(chan struct{}, 1),
		pumpDone:   make(chan struct{}),
		live:       map[int]*liveEntry{},
		retryRng:   rnd.New(cfg.RetrySeed, "retry-after"),
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

	// Shards partition stations round-robin by index.
	for s := 0; s < cfg.Shards; s++ {
		caps := map[int]float64{}
		for i := 0; i < cfg.Net.NumStations(); i++ {
			if i%cfg.Shards == s {
				caps[i] = cfg.Net.Capacity(i)
			}
		}
		e.shards = append(e.shards, newShard(s, caps, cfg.MaxRecordsPerShard))
	}

	if ck != nil {
		if err := e.install(ck); err != nil {
			return nil, fmt.Errorf("serve: restoring checkpoint: %w", err)
		}
		e.seedRegistry(ck)
	} else if err := e.installEmpty(); err != nil {
		return nil, err
	}
	return e, nil
}

// buildScheduler constructs the named scheduler, seeding DynamicRR's
// threshold learner from a checkpointed snapshot when one is given.
func buildScheduler(name string, opts sim.DynamicRROptions, snap *bandit.LipschitzSnapshot) (sim.Scheduler, error) {
	switch name {
	case "dynamicrr", "local-ratio":
		if name == "local-ratio" {
			opts.LocalRatio = true
		}
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

// installEmpty sets up a fresh planner with no live requests.
func (e *Engine) installEmpty() error {
	planner, err := sim.NewLiveEngine(e.cfg.Net, e.cfg.Rng, e.cfg.SlotLengthMS)
	if err != nil {
		return err
	}
	planner.SetStepChecker(e.cfg.StepChecker)
	planner.SetFeedbackDeferred(e.cfg.DeferFeedback)
	if err := planner.SetDrift(e.cfg.Drift); err != nil {
		return err
	}
	e.planner = planner
	e.res = &core.Result{Algorithm: e.sched.Name()}
	e.pending = nil
	e.settled = 0
	return nil
}

// install rebuilds the planner from a checkpoint (or, during compaction,
// from an in-memory checkpoint of the live set): live requests re-append
// in arrival order under fresh dense internal ids, and in-flight streams
// restore their exact ledger deltas.
func (e *Engine) install(ck *Checkpoint) error {
	if err := e.installEmpty(); err != nil {
		return err
	}
	e.slot = ck.Slot
	e.nextExt.Store(ck.NextExternalID)
	e.live = map[int]*liveEntry{}
	e.metrics.restoreTotals(ck.Totals)
	e.metrics.CurrentSlot.Store(int64(ck.Slot))

	reqs := append([]CheckpointRequest(nil), ck.Requests...)
	sort.Slice(reqs, func(a, b int) bool {
		if reqs[a].ArrivalSlot != reqs[b].ArrivalSlot {
			return reqs[a].ArrivalSlot < reqs[b].ArrivalSlot
		}
		return reqs[a].ExternalID < reqs[b].ExternalID
	})
	ext2int := make(map[uint64]int, len(reqs))
	for i, cr := range reqs {
		r, err := e.buildRequest(i, cr.ArrivalSlot, cr.Spec)
		if err != nil {
			return fmt.Errorf("request %d: %w", cr.ExternalID, err)
		}
		if err := e.planner.Append(r); err != nil {
			return err
		}
		d := core.Decision{RequestID: i, Station: -1}
		if cr.Running {
			d.Admitted, d.Served = true, true
		}
		e.res.Decisions = append(e.res.Decisions, d)
		e.live[i] = &liveEntry{ext: cr.ExternalID, spec: cr.Spec, arrival: cr.ArrivalSlot, running: cr.Running}
		ext2int[cr.ExternalID] = i
		if !cr.Running {
			e.pending = append(e.pending, i)
		}
	}

	running := make([]sim.RunningSnapshot, 0, len(ck.Running))
	for _, s := range ck.Running {
		internal, ok := ext2int[uint64(s.Request)]
		if !ok {
			return fmt.Errorf("running stream references unknown request %d", s.Request)
		}
		s.Request = internal
		running = append(running, s)
	}
	if err := e.planner.RestoreRunning(running); err != nil {
		return err
	}
	e.metrics.PendingDepth.Store(int64(len(e.pending)))
	e.metrics.ActiveStreams.Store(int64(e.planner.NumRunning()))
	return nil
}

// seedRegistry repopulates the observability registries from a restored
// checkpoint, so GET /v1/requests/{id} keeps answering for every live
// request across a restart. Called only from New, before the shard
// goroutines start, so mutating shard state directly is race-free and
// cannot deadlock on a full command channel.
func (e *Engine) seedRegistry(ck *Checkpoint) {
	procOf := make(map[uint64]int, len(ck.Running))
	for _, s := range ck.Running {
		procOf[uint64(s.Request)] = s.ProcStation
	}
	reqs := append([]CheckpointRequest(nil), ck.Requests...)
	sort.Slice(reqs, func(a, b int) bool {
		if reqs[a].ArrivalSlot != reqs[b].ArrivalSlot {
			return reqs[a].ArrivalSlot < reqs[b].ArrivalSlot
		}
		return reqs[a].ExternalID < reqs[b].ExternalID
	})
	for _, cr := range reqs {
		sh := e.shards[int(cr.ExternalID)%len(e.shards)]
		sh.apply(requestEvent{id: cr.ExternalID, kind: evSubmitted, slot: cr.ArrivalSlot})
		if cr.Running {
			st, ok := procOf[cr.ExternalID]
			if !ok {
				st = -1
			}
			sh.apply(requestEvent{id: cr.ExternalID, kind: evServing, slot: ck.Slot, station: st})
		}
	}
}

// buildRequest materializes a spec into a planner request, applying the
// paper-default pipeline, deadline, hold, and demand distribution.
func (e *Engine) buildRequest(id, arrival int, spec RequestSpec) (*mec.Request, error) {
	return e.buildRequestRng(e.cfg.Rng, id, arrival, spec)
}

// buildRequestRng is buildRequest with an explicit randomness source for
// the default-outcome unit-reward draw, so ValidateSpec can check a spec
// without consuming the engine's stream.
func (e *Engine) buildRequestRng(rng *rand.Rand, id, arrival int, spec RequestSpec) (*mec.Request, error) {
	return materializeSpec(e.cfg.Net, rng, id, arrival, spec)
}

// MaterializeSpec builds the planner request a spec would become against
// an arbitrary topology, without consuming any engine randomness (the
// default-outcome unit-reward draw uses a fixed throwaway source). The
// cluster router uses it to compute a request's candidate stations over
// the full topology before the owning shard re-materializes the spec
// against its own sub-network. Safe for concurrent use.
func MaterializeSpec(net *mec.Network, spec RequestSpec) (*mec.Request, error) {
	return materializeSpec(net, rand.New(rand.NewSource(0)), 0, 0, spec)
}

// materializeSpec applies the paper-default pipeline, deadline, hold, and
// demand distribution to a spec and validates the result.
func materializeSpec(net *mec.Network, rng *rand.Rand, id, arrival int, spec RequestSpec) (*mec.Request, error) {
	if spec.AccessStation < 0 || spec.AccessStation >= net.NumStations() {
		return nil, fmt.Errorf("%w: access station %d out of [0, %d)", ErrBadSpec, spec.AccessStation, net.NumStations())
	}
	deadline := spec.DeadlineMS
	if deadline == 0 {
		deadline = 200
	}
	if deadline < 0 {
		return nil, fmt.Errorf("%w: deadline %v", ErrBadSpec, deadline)
	}
	dur := spec.DurationSlots
	if dur == 0 {
		dur = 20
	}
	if dur < 0 {
		return nil, fmt.Errorf("%w: duration %d slots", ErrBadSpec, dur)
	}
	tasks := make([]mec.Task, 0, 4)
	if len(spec.Tasks) == 0 {
		for _, st := range workload.CanonicalPipeline() {
			tasks = append(tasks, mec.Task{Name: st.Name, OutputKb: st.OutputKb, WorkMS: st.BaseWorkMS})
		}
	} else {
		for _, ts := range spec.Tasks {
			if ts.OutputKb < 0 || ts.WorkMS < 0 {
				return nil, fmt.Errorf("%w: task %+v", ErrBadSpec, ts)
			}
			tasks = append(tasks, mec.Task{Name: ts.Name, OutputKb: ts.OutputKb, WorkMS: ts.WorkMS})
		}
	}
	outcomes := spec.Outcomes
	if len(outcomes) == 0 {
		outcomes = defaultOutcomes(rng)
	}
	distOutcomes := make([]dist.Outcome, 0, len(outcomes))
	for _, o := range outcomes {
		distOutcomes = append(distOutcomes, dist.Outcome{Rate: o.RateMBs, Prob: o.Prob, Reward: o.Reward})
	}
	d, err := dist.NewRateReward(distOutcomes)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	r := &mec.Request{
		ID:            id,
		ArrivalSlot:   arrival,
		AccessStation: spec.AccessStation,
		Tasks:         tasks,
		DeadlineMS:    deadline,
		DurationSlots: dur,
		Dist:          d,
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	return r, nil
}

// defaultOutcomes draws the paper-default five-point demand distribution:
// rates evenly spaced over [30, 50] MB/s, uniform probabilities, and a
// unit reward uniform in [12, 15] dollars per MB/s.
func defaultOutcomes(rng *rand.Rand) []OutcomeSpec {
	const support = workload.DefaultRateSupport
	unit := workload.DefaultMinUnitReward +
		rng.Float64()*(workload.DefaultMaxUnitReward-workload.DefaultMinUnitReward)
	out := make([]OutcomeSpec, support)
	for i := 0; i < support; i++ {
		rate := workload.DefaultMinRate +
			float64(i)*(workload.DefaultMaxRate-workload.DefaultMinRate)/float64(support-1)
		out[i] = OutcomeSpec{RateMBs: rate, Prob: 1.0 / support, Reward: unit * rate}
	}
	return out
}

// Start launches the shard goroutines, the intake pump, and the engine
// loop.
func (e *Engine) Start() {
	for _, s := range e.shards {
		go s.run()
	}
	go e.pump()
	go e.loop()
}

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

// IncStats returns the dirty-component tracker's counters (all zero for
// schedulers without the incremental re-solve or the fast path).
func (e *Engine) IncStats() core.IncStats {
	if d, ok := e.sched.(*sim.DynamicRR); ok {
		return d.IncStats()
	}
	return core.IncStats{}
}

// BanditSnapshot captures the DynamicRR threshold learner's state; it
// errors for baselines and for custom learners that cannot snapshot.
// Safe only while the loop is stopped or from within tests that own the
// tick cadence (the learner is loop-owned state).
func (e *Engine) BanditSnapshot() (*bandit.LipschitzSnapshot, error) {
	d, ok := e.sched.(*sim.DynamicRR)
	if !ok || d.Bandit() == nil {
		return nil, fmt.Errorf("serve: scheduler %s has no snapshottable bandit", e.sched.Name())
	}
	return d.Bandit().Snapshot()
}

// Reply channels for Submit and control calls are pooled: both run once
// per request or per tick, and each would otherwise allocate a fresh
// one-slot channel. A channel returns to its pool only after the normal
// reply is received; abandoned channels (loop exit races) are simply
// dropped for the GC, since the loop may still hold a reference.
var (
	intakeReplyPool = sync.Pool{New: func() any { return make(chan intakeReply, 1) }}
	ctlReplyPool    = sync.Pool{New: func() any { return make(chan error, 1) }}
)

// Submit queues a request for the next scheduling slot and returns its
// externally visible id.
func (e *Engine) Submit(spec RequestSpec) (uint64, int, error) {
	reply := intakeReplyPool.Get().(chan intakeReply)
	msg := intakeMsg{spec: spec, reply: reply}
	select {
	case e.intake <- msg:
	case <-e.loopDone:
		intakeReplyPool.Put(reply) // never enqueued: safe to reuse
		return 0, 0, ErrStopped
	}
	select {
	case rep := <-msg.reply:
		intakeReplyPool.Put(reply)
		return rep.id, rep.slot, rep.err
	case <-e.loopDone:
		return 0, 0, ErrStopped
	}
}

// Status looks up a request's current record. Shards outlive the engine
// loop (a drained engine still answers status queries) and stop only at
// Stop, after which lookups fail with ErrStopped.
func (e *Engine) Status(id uint64) (RequestRecord, bool, error) {
	sh := e.shards[int(id)%len(e.shards)]
	msg := statusMsg{id: id, reply: make(chan statusReply, 1)}
	select {
	case sh.cmds <- msg:
	case <-e.shardsDone:
		return RequestRecord{}, false, ErrStopped
	}
	select {
	case rep := <-msg.reply:
		return rep.rec, rep.ok, nil
	case <-e.shardsDone:
		return RequestRecord{}, false, ErrStopped
	}
}

// Gauges assembles the per-station occupancy gauges from every shard.
func (e *Engine) Gauges() []StationGauge {
	var out []StationGauge
	for _, sh := range e.shards {
		msg := gaugesMsg{reply: make(chan []StationGauge, 1)}
		select {
		case sh.cmds <- msg:
		case <-e.shardsDone:
			return out
		}
		select {
		case g := <-msg.reply:
			out = append(out, g...)
		case <-e.shardsDone:
			return out
		}
	}
	return out
}

// Tick advances the engine by one scheduling slot. The engine has no
// clock of its own: the cluster's epoch workers (or a test) call it.
func (e *Engine) Tick() error { return e.controlCall(ctlTick) }

// Snapshot captures the engine's live state as an in-memory checkpoint.
// It reflects only requests the planner has seen:
// callers who need batched-ingest residue included (the cluster
// checkpoint path) must Flush first. An engine that drained to completion
// keeps answering with the state it exited in (shared between calls: read,
// do not modify), so a checkpoint taken after a clean drain still carries
// its learner and counters; one Stop halted first fails with ErrStopped.
func (e *Engine) Snapshot() (*Checkpoint, error) {
	msg := snapMsg{reply: make(chan snapReply, 1)}
	select {
	case e.snapC <- msg:
		select {
		case rep := <-msg.reply:
			return rep.ck, rep.err
		case <-e.loopDone:
		}
	case <-e.loopDone:
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
func (e *Engine) Extract(ext uint64) (RequestSpec, int, error) {
	msg := extractMsg{ext: ext, reply: make(chan extractReply, 1)}
	select {
	case e.extractC <- msg:
	case <-e.loopDone:
		return RequestSpec{}, 0, ErrStopped
	}
	select {
	case rep := <-msg.reply:
		return rep.spec, rep.arrival, rep.err
	case <-e.loopDone:
		return RequestSpec{}, 0, ErrStopped
	}
}

// DeliverFeedback hands the scheduler a slot's (externally aggregated)
// realized reward on the loop goroutine. Only meaningful with
// Config.DeferFeedback set; a no-op for schedulers without learning
// feedback.
func (e *Engine) DeliverFeedback(slot int, reward float64) error {
	return e.sendControl(controlMsg{kind: ctlFeedback, slot: slot, reward: reward})
}

// TickWithFeedback delivers slot fbSlot's aggregated reward and then
// runs the next slot in a single control round-trip — the fused epoch
// message the cluster's persistent shard workers send so a tick plus its
// deferred feedback cost one barrier, not a barrier and a serial loop.
func (e *Engine) TickWithFeedback(fbSlot int, reward float64) error {
	return e.sendControl(controlMsg{kind: ctlTickFeedback, slot: fbSlot, reward: reward})
}

// Drain stops intake (Submit fails with ErrDraining) and lets the engine
// run until every pending request is decided and every stream departs,
// at which point the loop exits.
func (e *Engine) Drain() error { return e.controlCall(ctlDrain) }

// Stop halts the loop immediately, without waiting for in-flight
// streams; a caller that wants the state kept takes a Snapshot first.
// Shard goroutines terminate too.
func (e *Engine) Stop() error {
	err := e.controlCall(ctlStop)
	if errors.Is(err, ErrStopped) {
		err = nil
	}
	e.stopShards()
	return err
}

// stopShards terminates the shard goroutines (idempotent: a second Stop
// must not enqueue into a channel nobody drains anymore).
func (e *Engine) stopShards() {
	e.shardStop.Do(func() {
		for _, sh := range e.shards {
			done := make(chan struct{})
			sh.cmds <- stopMsg{done: done}
			<-done
		}
		close(e.shardsDone)
	})
}

// Done is closed when the engine loop has exited (drain complete or
// stopped).
func (e *Engine) Done() <-chan struct{} { return e.loopDone }

// Draining reports whether intake is closed.
func (e *Engine) Draining() bool {
	select {
	case <-e.loopDone:
		return true
	default:
	}
	return e.metrics.drainFlag.Load()
}

// Alive reports whether the engine loop is still running.
func (e *Engine) Alive() bool {
	select {
	case <-e.loopDone:
		return false
	default:
		return true
	}
}

// controlCall sends a control message and waits for the loop's reply.
func (e *Engine) controlCall(kind controlKind) error {
	return e.sendControl(controlMsg{kind: kind})
}

// sendControl attaches a pooled reply channel to msg, sends it to the
// loop, and waits for the reply.
func (e *Engine) sendControl(msg controlMsg) error {
	reply := ctlReplyPool.Get().(chan error)
	msg.reply = reply
	select {
	case e.control <- msg:
	case <-e.loopDone:
		ctlReplyPool.Put(reply) // never enqueued: safe to reuse
		return ErrStopped
	}
	select {
	case err := <-msg.reply:
		ctlReplyPool.Put(reply)
		return err
	case <-e.loopDone:
		return ErrStopped
	}
}

// loop is the engine's single-writer core: it owns the planner, the
// pending queue, and the live-request table, and it is the only
// goroutine that advances the scheduler and its bandit.
func (e *Engine) loop() {
	defer close(e.loopDone)
	for {
		select {
		case msg := <-e.intake:
			msg.reply <- e.handleIntake(msg.spec)
		case <-e.ringC:
			e.drainRing(false)
		case msg := <-e.snapC:
			ck, err := e.snapshotState()
			msg.reply <- snapReply{ck: ck, err: err}
		case msg := <-e.extractC:
			msg.reply <- e.handleExtract(msg.ext)
		case msg := <-e.control:
			switch msg.kind {
			case ctlTick:
				e.runSlot()
				msg.reply <- nil
				if e.drainComplete() {
					return
				}
			case ctlFlushRing:
				e.drainRing(true)
				msg.reply <- nil
			case ctlFeedback:
				if fb, ok := e.sched.(sim.FeedbackScheduler); ok {
					fb.Feedback(msg.slot, msg.reward)
				}
				msg.reply <- nil
			case ctlTickFeedback:
				if fb, ok := e.sched.(sim.FeedbackScheduler); ok {
					fb.Feedback(msg.slot, msg.reward)
				}
				e.runSlot()
				msg.reply <- nil
				if e.drainComplete() {
					return
				}
			case ctlDrain:
				// Quiesce the ingest path before raising the drain flag:
				// requests already accepted into the stage or ring become
				// pending (and thus drain to a decision) instead of being
				// rejected behind the submitter's back.
				e.quiesceIngest()
				e.drain = true
				e.metrics.drainFlag.Store(true)
				msg.reply <- nil
				if e.drainComplete() {
					return
				}
			case ctlStop:
				msg.reply <- nil
				return
			}
		}
	}
}

// quiesceIngest closes the batched-ingest path and hands its residue to
// the planner (loop goroutine only): the pump stops accepting batches
// and surrenders its overflow stage, the loop force-drains the ring, and
// every surrendered entry is appended as pending in submission order. A
// drain (and any Snapshot taken after it) then sees every accepted
// request instead of dropping the stage and ring residue on the floor.
// Idempotent: a second call finds an already-stopped pump with an empty
// stage.
func (e *Engine) quiesceIngest() {
	e.metrics.drainFlag.Store(true)
	var staged []ingestEntry
	msg := batchMsg{collect: true, reply: batchReplyChan()}
	select {
	case e.batchC <- msg:
		select {
		case rep := <-msg.reply:
			staged = rep.staged
			putBatchReplyChan(msg.reply)
		case <-e.pumpDone:
		}
	case <-e.pumpDone:
	}
	// The residue must land even if a drain flag is already up: these
	// requests were accepted before intake closed.
	wasDrain := e.drain
	e.drain = false
	e.drainRing(true)
	sort.Slice(staged, func(a, b int) bool { return staged[a].seq < staged[b].seq })
	for _, ent := range staged {
		e.ingestOne(ent)
	}
	e.drain = wasDrain
	e.stagedDepth.Store(0)
	e.metrics.IntakeDepth.Store(int64(e.ring.Len()))
	e.metrics.PendingDepth.Store(int64(len(e.pending)))
}

// handleExtract removes one pending request from the planner for
// cross-shard migration (loop goroutine only). Only undecided requests
// are extractable: once a request scheduled, its service instance is
// pinned to this engine's stations. The registry records the request as
// migrated (a terminal state here; the target shard owns it from now
// on).
func (e *Engine) handleExtract(ext uint64) extractReply {
	internal := -1
	for j, le := range e.live {
		if le.ext == ext && !le.running {
			internal = j
			break
		}
	}
	if internal < 0 {
		return extractReply{err: ErrNotPending}
	}
	for k, j := range e.pending {
		if j == internal {
			e.pending = append(e.pending[:k], e.pending[k+1:]...)
			break
		}
	}
	le := e.live[internal]
	delete(e.live, internal)
	e.settled++
	e.metrics.PendingDepth.Store(int64(len(e.pending)))
	e.shardEvent(requestEvent{id: ext, kind: evMigrated, slot: e.slot})
	return extractReply{spec: le.spec, arrival: le.arrival}
}

// drainComplete reports true once a draining engine has no work left,
// and on that transition records the final state for Snapshot: the loop
// exits right after, and what it learned must outlive it. Feedback still
// deferred for the exit slot (Config.DeferFeedback) is not in it; that
// matters only when the slot pulled an arm and left nothing running.
func (e *Engine) drainComplete() bool {
	if !e.drain || len(e.pending) != 0 || e.planner.NumRunning() != 0 {
		return false
	}
	ck, err := e.snapshotState()
	if err != nil {
		e.cfg.Logf("arserved: final snapshot of the drained engine failed: %v", err)
	}
	e.drainedSnap = ck
	return true
}

// handleIntake admits one request into the pending queue (loop goroutine
// only).
func (e *Engine) handleIntake(spec RequestSpec) intakeReply {
	if e.drain {
		e.metrics.Rejected.Inc()
		return intakeReply{err: ErrDraining}
	}
	internal := len(e.planner.Requests())
	r, err := e.buildRequest(internal, e.slot, spec)
	if err != nil {
		e.metrics.Rejected.Inc()
		return intakeReply{err: err}
	}
	if err := e.planner.Append(r); err != nil {
		e.metrics.Rejected.Inc()
		return intakeReply{err: err}
	}
	ext := e.nextExt.Add(1) - 1
	e.res.Decisions = append(e.res.Decisions, core.Decision{RequestID: internal, Station: -1})
	e.pending = append(e.pending, internal)
	e.live[internal] = &liveEntry{ext: ext, spec: spec, arrival: e.slot, running: false}
	e.metrics.Submitted.Inc()
	e.metrics.PendingDepth.Store(int64(len(e.pending)))
	e.shardEvent(requestEvent{id: ext, kind: evSubmitted, slot: e.slot})
	return intakeReply{id: ext, slot: e.slot}
}

// shardEvent publishes one event to the owning shard (loop goroutine
// only; shards drain fast, so a blocking send is fine).
func (e *Engine) shardEvent(ev requestEvent) {
	sh := e.shards[int(ev.id)%len(e.shards)]
	sh.cmds <- slotMsg{events: []requestEvent{ev}}
}

// runSlot executes one scheduling slot end to end (loop goroutine only).
func (e *Engine) runSlot() {
	// Pull whatever the batch path delivered before this slot, up to the
	// pending bound, so a batch submitted before the tick schedules in
	// this slot exactly like single-POST arrivals would.
	e.drainRing(false)
	t := e.slot
	depth := len(e.pending)
	start := time.Now()
	pending, rep, err := e.planner.Step(e.sched, e.res, t, e.pending)
	durMS := float64(time.Since(start)) / float64(time.Millisecond)
	e.pending = pending
	if err != nil {
		// A scheduler failure leaves this slot unscheduled; the requests
		// stay pending and the next slot retries.
		e.metrics.SlotErrors.Inc()
		e.cfg.Logf("arserved: slot %d scheduler error: %v", t, err)
	}
	if e.cfg.SlotObserver != nil {
		e.cfg.SlotObserver(rep)
	}
	if e.cfg.DecisionObserver != nil {
		admittedExt := e.admittedExtBuf[:0]
		for _, j := range rep.Admitted {
			if le, ok := e.live[j]; ok {
				admittedExt = append(admittedExt, le.ext)
			}
		}
		e.admittedExtBuf = admittedExt
		e.cfg.DecisionObserver(t, admittedExt, rep.Reward)
	}

	// Fold the slot report into metrics and shard events. The per-shard
	// event slices allocate only on slots that actually produce events, so
	// an idle slot (no arrivals, departures, or admissions) runs
	// allocation-free.
	var events [][]requestEvent
	push := func(ev requestEvent) {
		if events == nil {
			events = make([][]requestEvent, len(e.shards))
		}
		s := int(ev.id) % len(e.shards)
		events[s] = append(events[s], ev)
	}
	for _, j := range rep.Departed {
		if le, ok := e.live[j]; ok {
			push(requestEvent{id: le.ext, kind: evCompleted, slot: t})
			delete(e.live, j)
			e.settled++
		}
		e.metrics.Departed.Inc()
	}
	for _, j := range rep.Expired {
		if le, ok := e.live[j]; ok {
			push(requestEvent{id: le.ext, kind: evExpired, slot: t})
			delete(e.live, j)
			e.settled++
		}
		e.metrics.Expired.Inc()
	}
	// Outage evictions destroy running streams mid-hold: the record moves
	// to evicted (rewards credited at admission stay credited, matching
	// the planner's outage semantics).
	for _, j := range rep.OutageEvicted {
		if le, ok := e.live[j]; ok {
			push(requestEvent{id: le.ext, kind: evEvicted, slot: t})
			delete(e.live, j)
			e.settled++
		}
		e.metrics.Evicted.Inc()
	}
	// rep.Served is a (small) subset of rep.Admitted; a linear membership
	// scan avoids a per-slot map allocation.
	isServed := func(j int) bool {
		for _, s := range rep.Served {
			if s == j {
				return true
			}
		}
		return false
	}
	for _, j := range rep.Admitted {
		e.metrics.Admitted.Inc()
		le, ok := e.live[j]
		if !ok {
			continue
		}
		d := e.res.Decisions[j]
		if isServed(j) {
			le.running = true
			push(requestEvent{id: le.ext, kind: evServing, slot: t, station: d.Station, reward: d.Reward, latencyMS: d.LatencyMS})
			e.metrics.Served.Inc()
		} else {
			push(requestEvent{id: le.ext, kind: evEvicted, slot: t, station: d.Station})
			delete(e.live, j)
			e.settled++
			e.metrics.Evicted.Inc()
		}
	}
	e.metrics.Reward.Add(rep.Reward)
	e.metrics.SlotDuration.Observe(durMS)
	e.metrics.Ticks.Inc()
	e.metrics.PendingDepth.Store(int64(len(e.pending)))
	e.metrics.ActiveStreams.Store(int64(e.planner.NumRunning()))

	// Publish per-station occupancy and the request events to the shards.
	// Occupancy only moves when streams start or end, so an idle slot sends
	// nothing at all: the shards' gauges are still exact and the loop's hot
	// path stays free of channel traffic (and of the interface boxing a
	// slotMsg send implies).
	used := e.planner.Used()
	dirty := len(rep.Departed) > 0 || len(rep.Admitted) > 0
	if dirty || events != nil {
		for s, sh := range e.shards {
			var su []stationUsed
			if dirty {
				for i := s; i < len(used); i += len(e.shards) {
					su = append(su, stationUsed{station: i, usedMHz: used[i]})
				}
			}
			var evs []requestEvent
			if events != nil {
				evs = events[s]
			}
			if su == nil && evs == nil {
				continue
			}
			sh.cmds <- slotMsg{used: su, events: evs}
		}
	}

	// Per-slot trace line, format-compatible with arsim -trace.
	if e.cfg.TraceWriter != nil {
		total := e.cfg.Net.TotalCapacity()
		sumUsed := 0.0
		for _, u := range used {
			sumUsed += u
		}
		line := fmt.Sprintf("slot %4d  pending %3d  admitted %3d  utilization %5.1f%%",
			t, depth, len(rep.Admitted), 100*sumUsed/total)
		if d, ok := e.sched.(*sim.DynamicRR); ok && d.Bandit() != nil {
			if best, ok := d.Bandit().Policy().(interface{ BestArm() int }); ok {
				line += fmt.Sprintf("  threshold %4.0f MHz", d.Bandit().Value(best.BestArm()))
			}
		}
		fmt.Fprintln(e.cfg.TraceWriter, line)
	}

	e.slot++
	e.metrics.CurrentSlot.Store(int64(e.slot))

	if e.settled > e.cfg.CompactAfter {
		if err := e.compact(); err != nil {
			e.cfg.Logf("arserved: compaction failed (continuing uncompacted): %v", err)
		}
	}
}

// snapshotState captures the live set as a checkpoint (loop goroutine
// only). It is the shared substrate of Snapshot and in-memory compaction;
// everything mutable is deep-copied, so the cluster's checkpoint writer
// may encode the result while the loop keeps scheduling.
func (e *Engine) snapshotState() (*Checkpoint, error) {
	ck := &Checkpoint{
		Version:        checkpointVersion,
		Slot:           e.slot,
		NextExternalID: e.nextExt.Load(),
		Scheduler:      e.cfg.SchedulerName,
		Totals:         e.metrics.Totals(),
	}
	if d, ok := e.sched.(*sim.DynamicRR); ok && d.Bandit() != nil {
		snap, err := d.Bandit().Snapshot()
		if err == nil {
			ck.Bandit = snap
		} else if !errors.Is(err, bandit.ErrUnsupportedSnapshot) {
			return nil, err
		}
	}
	for _, le := range e.live {
		ck.Requests = append(ck.Requests, CheckpointRequest{
			ExternalID:  le.ext,
			ArrivalSlot: le.arrival,
			Running:     le.running,
			Spec:        le.spec,
		})
	}
	sort.Slice(ck.Requests, func(a, b int) bool { return ck.Requests[a].ExternalID < ck.Requests[b].ExternalID })
	for _, s := range e.planner.SnapshotRunning() {
		le, ok := e.live[s.Request]
		if !ok {
			// A stream whose bookkeeping entry vanished would leak; fail
			// loudly instead of checkpointing an unrecoverable state.
			return nil, fmt.Errorf("serve: running request %d missing from live table", s.Request)
		}
		s.Request = int(le.ext)
		ck.Running = append(ck.Running, s)
	}
	return ck, nil
}

// compact rebuilds the planner from the live set, dropping the settled
// backlog so a long-running daemon's memory stays bounded by its live
// request count rather than its lifetime request count.
func (e *Engine) compact() error {
	ck, err := e.snapshotState()
	if err != nil {
		return err
	}
	before := len(e.planner.Requests())
	if err := e.install(ck); err != nil {
		return err
	}
	e.cfg.Logf("arserved: compacted planner %d -> %d requests", before, len(e.planner.Requests()))
	return nil
}
