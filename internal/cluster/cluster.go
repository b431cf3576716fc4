package cluster

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mecoffload/internal/ckpt"
	"mecoffload/internal/mec"
	"mecoffload/internal/rnd"
	"mecoffload/internal/serve"
	"mecoffload/internal/sim"
)

// Config parameterizes New.
type Config struct {
	// Net is the full MEC topology (required). Each shard serves the
	// induced sub-network of its station partition.
	Net *mec.Network
	// Shards is the number of scheduler shards (default 1, at most one
	// per station).
	Shards int
	// SchedulerName, DynamicRR, SlotLengthMS, and StepChecker pass
	// through to every shard's serve.Config.
	SchedulerName string
	DynamicRR     sim.DynamicRROptions
	SlotLengthMS  float64
	StepChecker   sim.StepChecker
	// Drift, when non-nil, is the scripted non-stationarity program in
	// GLOBAL station ids. Outages and same-shard handovers run inside
	// the owning shard's planner; handovers crossing a partition edge
	// are applied by the cluster clock through the migration handoff, so
	// the decision stream stays identical to a single engine running the
	// same script (the cluster parity contract extends to drift).
	Drift *sim.Drift
	// TickInterval drives the cluster clock: shards always run with
	// manual ticks, and the cluster advances them in lockstep so slot
	// rewards aggregate globally. Zero means manual Tick (tests, replay).
	TickInterval time.Duration
	// Seed derives every per-shard randomness stream (engine rng and
	// Retry-After jitter) through internal/rnd labels.
	Seed int64
	// CheckpointPath, when set, names the cluster manifest; per-shard
	// snapshots are written beside it. New restores from an existing
	// manifest — with any shard count; a version-1 single-engine
	// checkpoint left there by an older daemon reads as a one-shard
	// manifest — and the cluster rewrites it every CheckpointEvery slots
	// (default 50) and at Stop.
	CheckpointPath  string
	CheckpointEvery int
	// AsyncCheckpoint takes checkpoint I/O off the cluster clock: under
	// the clock lock the periodic checkpoint only extracts copy-on-write
	// shard snapshots (one epoch barrier), and JSON encoding, temp
	// files, fsync, and the generation-stamped manifest rename run on a
	// single-flight writer goroutine. A snapshot generation still queued
	// when the next one extracts is dropped (latest wins; counted on
	// /metrics). The written bytes are identical to a synchronous
	// checkpoint at the same slot boundary, and Stop's final manifest is
	// always written synchronously.
	AsyncCheckpoint bool
	// MigrationEvery is the slot period of the cross-shard migration
	// sweep (default 4; negative disables migration). MigrationBurst
	// bounds commits per sweep (default 4) and MigrationHysteresis is
	// the minimum free-capacity-fraction advantage a target shard must
	// offer (default 0.10).
	MigrationEvery      int
	MigrationBurst      int
	MigrationHysteresis float64
	// Per-shard engine bounds, passed through to serve.Config.
	RingCapacity  int
	StageCapacity int
	MaxPending    int
	BatchQueue    int
	// Logf receives operational log lines.
	Logf func(format string, args ...any)
	// TraceWriter, when non-nil, receives every shard's per-slot trace
	// line (arsim's trace format). With more than one shard each line is
	// prefixed "[shard k] "; a single shard's output is byte-identical to
	// arsim -trace.
	TraceWriter io.Writer
	// SlotObserver, when set, receives each cluster slot's admitted
	// request ids (ascending) and the globally aggregated reward, after
	// every shard ticked. Replay harnesses use it to build decision
	// dumps for oracle.DiffCluster. The admitted slice is scratch
	// reused on the next slot — copy it if it outlives the call.
	SlotObserver func(slot int, admitted []uint64, reward float64)
}

// shardSlotReport is one shard's decision report for one slot.
type shardSlotReport struct {
	slot     int
	admitted []uint64 // request ids
	reward   float64
}

// epochOp selects what one epoch barrier asks of every shard.
type epochOp int

const (
	// epTick runs one slot — fused with the previous slot's deferred
	// feedback when hasFB — and, when wantFree, refreshes the shard's
	// free-capacity fraction for the migration sweep.
	epTick epochOp = iota
	// epSettle delivers pending deferred feedback without advancing the
	// clock; checkpoints and Stop use it so captured bandit state
	// matches what a synchronous schedule would have written.
	epSettle
	// epSnapshot flushes batched-ingest residue and extracts the shard's
	// copy-on-write checkpoint snapshot into nd.snap.
	epSnapshot
	// epFlush moves every accepted batch into the shard's planner.
	epFlush
)

// epochMsg is one barrier broadcast to the shards. It is sent by value
// (no allocation) and carries the reusable WaitGroup the clock waits on.
type epochMsg struct {
	op       epochOp
	fbSlot   int
	fbReward float64
	hasFB    bool
	wantFree bool
	wg       *sync.WaitGroup
}

// shardNode is one scheduler shard: an engine over an induced
// sub-network plus the station index maps.
type shardNode struct {
	idx      int
	eng      *serve.Engine
	subnet   *mec.Network
	stations []int       // local station -> global station
	localOf  map[int]int // global station -> local station

	migratedIn  atomic.Uint64
	migratedOut atomic.Uint64
	// rehomedIn counts the engine re-submissions the clock made into this
	// shard for requests already accepted once (migration and handover
	// handoffs, and their compensations; guarded by the cluster's clock
	// lock). Each shows up a second time in the engine's submitted counter;
	// Totals and the checkpoint take it back out.
	rehomedIn uint64

	// Epoch results. run writes them inside an epoch (on the shard's
	// worker, or on the clock's goroutine for shard 0) and the clock reads
	// them only after the epoch's WaitGroup settles, so the barrier is the
	// only synchronization they need. epochC is nil for shard 0.
	epochC   chan epochMsg
	err      error
	freeFrac float64
	snap     *serve.Checkpoint
	snapErr  error

	// reports are the slot reports the engine's DecisionObserver appended
	// inside the tick epoch; the clock takes them after its barrier.
	reports []shardSlotReport
	// spare is the report buffer the previous takeReports handed out,
	// recycled once its consumer is done: takeReports swaps the two, so
	// the steady-state tick appends into an already-sized array instead
	// of growing a fresh slice every slot.
	spare []shardSlotReport
}

// epochWorker is the persistent goroutine of a shard other than shard 0:
// a slot costs it one channel send and one WaitGroup decrement, and the
// slot itself runs here, inside the engine's Tick.
func (nd *shardNode) epochWorker() {
	for msg := range nd.epochC {
		nd.run(msg)
		msg.wg.Done()
	}
}

// run carries out one epoch's operation on the shard's engine. An engine
// that has exited answers ErrStopped, which the clock counts as a dead
// shard.
func (nd *shardNode) run(msg epochMsg) {
	switch msg.op {
	case epTick:
		nd.err = nil
		if msg.hasFB {
			nd.err = nd.eng.DeliverFeedback(msg.fbSlot, msg.fbReward)
		}
		if nd.err == nil {
			nd.err = nd.eng.Tick()
		}
		if msg.wantFree {
			nd.freeFrac = nd.computeFreeFrac()
		}
	case epSettle:
		nd.err = nil
		if msg.hasFB {
			nd.err = ignoreStopped(nd.eng.DeliverFeedback(msg.fbSlot, msg.fbReward))
		}
	case epSnapshot:
		// A shard that already drained and exited has nothing to flush
		// and answers Snapshot with the state it exited in.
		nd.snap, nd.snapErr = nil, ignoreStopped(nd.eng.Flush())
		if nd.snapErr == nil {
			snap, err := nd.eng.Snapshot()
			nd.snap, nd.snapErr = snap, ignoreStopped(err)
		}
	case epFlush:
		nd.err = ignoreStopped(nd.eng.Flush())
	}
}

// ignoreStopped drops serve.ErrStopped: a shard that exited has nothing
// left to flush, settle or snapshot beyond what it left behind.
func ignoreStopped(err error) error {
	if errors.Is(err, serve.ErrStopped) {
		return nil
	}
	return err
}

// computeFreeFrac returns the shard's spare-capacity fraction: occupancy
// from the engine's station gauges against the sub-network's EFFECTIVE
// capacities, so a shard mid-outage stops attracting migrations instead
// of advertising its dark stations' nominal MHz. A dead shard, or one
// with no effective capacity, counts as fully loaded. It runs in the
// shard's share of a sweep slot's tick epoch, in parallel with the others.
func (nd *shardNode) computeFreeFrac() float64 {
	if !nd.eng.Alive() {
		return 0
	}
	var used, cap float64
	for _, g := range nd.eng.Gauges() {
		used += g.UsedMHz
		cap += nd.subnet.Capacity(g.Station)
	}
	if cap <= 0 {
		return 0
	}
	return (cap - used) / cap
}

func (nd *shardNode) observe(slot int, admitted []uint64, reward float64) {
	nd.reports = append(nd.reports, shardSlotReport{slot: slot, admitted: admitted, reward: reward})
}

// takeReports returns the accumulated slot reports and re-arms the node
// with the previously returned buffer (double-buffering). The returned
// slice is only valid until the next takeReports call — the tick loop
// consumes it immediately.
func (nd *shardNode) takeReports() []shardSlotReport {
	r := nd.reports
	nd.reports = nd.spare[:0]
	nd.spare = r
	return r
}

// shardTraceWriter labels one shard's trace lines and serializes them
// with the other shards' onto the shared sink (the engines write from
// their shares of the tick epoch, one Write per line).
type shardTraceWriter struct {
	mu     *sync.Mutex
	w      io.Writer
	prefix string
}

func (s *shardTraceWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := io.WriteString(s.w, s.prefix); err != nil {
		return 0, err
	}
	return s.w.Write(p)
}

// Cluster is N scheduler shards behind one router and one clock.
type Cluster struct {
	cfg    Config
	net    *mec.Network
	parts  [][]int
	owner  []int // global station -> shard
	nodes  []*shardNode
	router *router

	// mu serializes the cluster clock: Tick, Flush, Drain, the migration
	// sweep, and checkpoint extraction. Submit/Status take only the
	// router's lock and the owning engine's.
	mu          sync.Mutex
	slot        int
	manifestGen uint64
	// clockStopped marks the clock dead (mu-guarded): Stop sets it
	// before closing the worker epoch channels, so a Tick that was
	// blocked on mu across Stop returns ErrStopped instead of sending on
	// a closed channel.
	clockStopped bool
	// epochWG is the reusable barrier the epoch broadcast waits on; the
	// clock lock serializes epochs, so Add never races Wait.
	epochWG sync.WaitGroup
	// Deferred fused feedback (mu-guarded): slot fbSlot's aggregated
	// reward, delivered inside the NEXT tick's epoch message so
	// tick+feedback cost one barrier. The learner still sees feedback(t)
	// before Step(t+1) — the decision stream is unchanged.
	fbSlot   int
	fbReward float64
	fbValid  bool
	// crossHandovers are the drift handovers whose endpoints live in
	// different shards, sorted by slot; crossCur is the forward-only
	// cursor the clock advances (mu-guarded).
	crossHandovers []sim.Handover
	crossCur       int
	// tickAdmitted is tickLocked's reusable list of the slot's admitted
	// ids (mu-guarded), grown once and recycled every slot.
	tickAdmitted []uint64
	// sweepWork and sweepSettled are sweepLocked's reusable worklist
	// snapshot and prune list (mu-guarded).
	sweepWork    []routed
	sweepSettled []uint64
	// submitScratch pools SubmitBatch's routing scratch (route table,
	// per-shard spec slices, zip cursors) across concurrent batches.
	submitScratch sync.Pool

	// ckw serializes every checkpoint's disk half (non-nil when
	// CheckpointPath is set; both sync and async writes route through it
	// so an older in-flight write can never clobber a newer manifest).
	// diskPrev is the previous generation's shard files, touched only by
	// writer-goroutine jobs — the writer's serial execution is its lock.
	ckw      *ckpt.Writer
	diskPrev []string

	// done closes in the call that sees the last engine exit
	// (markDoneLocked, mu-guarded).
	done         chan struct{}
	doneClosed   bool
	tickerStop   chan struct{}
	startOnce    sync.Once
	stopOnce     sync.Once
	lastTickNano atomic.Int64
	drainFlag    atomic.Bool
	checkpoints  atomic.Uint64

	// journal is a ring of the last journalCap migration entries; journalN
	// counts every entry ever appended (both migMu-guarded).
	migMu    sync.Mutex
	journal  [journalCap]Migration
	journalN uint64
}

// New builds a cluster: the station partition, one engine per shard,
// and the router. When cfg.CheckpointPath names an existing manifest,
// the cluster restores from it — the manifest's state re-partitions
// onto the configured shard count, which may differ from the count that
// wrote it.
func New(cfg Config) (*Cluster, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("cluster: nil network")
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if n := cfg.Net.NumStations(); cfg.Shards > n {
		cfg.Shards = n
	}
	if cfg.SlotLengthMS == 0 {
		cfg.SlotLengthMS = mec.DefaultSlotLengthMS
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 50
	}
	if cfg.MigrationEvery == 0 {
		cfg.MigrationEvery = 4
	}
	if cfg.MigrationBurst <= 0 {
		cfg.MigrationBurst = 4
	}
	if cfg.MigrationHysteresis == 0 {
		cfg.MigrationHysteresis = 0.10
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}

	parts, err := Partition(cfg.Net, cfg.Shards)
	if err != nil {
		return nil, err
	}
	owner := make([]int, cfg.Net.NumStations())
	for k, part := range parts {
		for _, i := range part {
			owner[i] = k
		}
	}

	c := &Cluster{
		cfg:        cfg,
		net:        cfg.Net,
		parts:      parts,
		owner:      owner,
		done:       make(chan struct{}),
		tickerStop: make(chan struct{}),
	}
	c.router = newRouter(cfg.Net, owner, maxRouted)

	for k, part := range parts {
		subnet, err := subNetwork(cfg.Net, part)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d sub-network: %w", k, err)
		}
		nd := &shardNode{idx: k, subnet: subnet, stations: part, localOf: make(map[int]int, len(part))}
		for l, g := range part {
			nd.localOf[g] = l
		}
		c.nodes = append(c.nodes, nd)
	}

	// Restore from an existing manifest, shard-count-agnostic.
	var restores []*serve.Checkpoint
	if cfg.CheckpointPath != "" {
		man, snaps, err := loadManifest(cfg.CheckpointPath, cfg.Net.NumStations())
		if err != nil && !errors.Is(err, ErrNoManifest) {
			return nil, err
		}
		if man != nil {
			restores, err = c.composeRestore(man, snaps)
			if err != nil {
				return nil, fmt.Errorf("cluster: restoring manifest: %w", err)
			}
			c.slot = man.Slot
			c.manifestGen = man.Generation
		}
	}

	// Split the drift script across the shards (global ids validate
	// against the full topology; each shard re-validates its local
	// slice at engine construction).
	var shardDrift []*sim.Drift
	if cfg.Drift != nil {
		if err := cfg.Drift.Validate(cfg.Net.NumStations()); err != nil {
			return nil, fmt.Errorf("cluster: drift script: %w", err)
		}
		shardDrift, c.crossHandovers = splitDrift(cfg.Drift, owner, c.nodes)
	}

	var traceMu sync.Mutex
	for k, nd := range c.nodes {
		scfg := serve.Config{
			Net:              nd.subnet,
			SchedulerName:    cfg.SchedulerName,
			DynamicRR:        cfg.DynamicRR,
			SlotLengthMS:     cfg.SlotLengthMS,
			Rng:              rnd.New(cfg.Seed, fmt.Sprintf("cluster-shard-%d", k)),
			RetrySeed:        rnd.Derive(cfg.Seed, fmt.Sprintf("cluster-retry-%d", k)),
			DeferFeedback:    true,
			DecisionObserver: nd.observe,
			StepChecker:      cfg.StepChecker,
			RingCapacity:     cfg.RingCapacity,
			StageCapacity:    cfg.StageCapacity,
			MaxPending:       cfg.MaxPending,
			BatchQueue:       cfg.BatchQueue,
			Logf: func(format string, args ...any) {
				cfg.Logf("[shard %d] "+format, append([]any{k}, args...)...)
			},
		}
		if restores != nil {
			scfg.Restore = restores[k]
		}
		if shardDrift != nil {
			scfg.Drift = shardDrift[k]
		}
		switch {
		case cfg.TraceWriter == nil:
		case len(c.nodes) == 1:
			scfg.TraceWriter = cfg.TraceWriter
		default:
			scfg.TraceWriter = &shardTraceWriter{mu: &traceMu, w: cfg.TraceWriter, prefix: fmt.Sprintf("[shard %d] ", k)}
		}
		eng, err := serve.New(scfg)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d engine: %w", k, err)
		}
		nd.eng = eng
	}
	// The epoch workers and the checkpoint writer start last so no error
	// path above leaks a goroutine. Stop closes both. Shard 0 has no
	// worker: the clock runs its share of an epoch itself.
	for _, nd := range c.nodes[1:] {
		nd.epochC = make(chan epochMsg, 1)
		go nd.epochWorker()
	}
	if cfg.CheckpointPath != "" {
		c.ckw = ckpt.NewWriter(cfg.Logf)
	}
	return c, nil
}

// epoch runs one operation on every shard and waits for all of them: it
// hands the message to the workers of shards 1…N−1, runs shard 0's share
// on the calling goroutine, and waits — N−1 buffered channel sends plus
// one WaitGroup wait, with no goroutine creation. Callers hold c.mu (which
// serializes epochs) and must have checked clockStopped.
func (c *Cluster) epoch(msg epochMsg) {
	c.epochWG.Add(len(c.nodes) - 1)
	msg.wg = &c.epochWG
	for _, nd := range c.nodes[1:] {
		nd.epochC <- msg
	}
	c.nodes[0].run(msg)
	c.epochWG.Wait()
}

// markDoneLocked closes Done once no shard engine is alive; the clock
// calls it after every call that can end an engine (callers hold c.mu).
func (c *Cluster) markDoneLocked() {
	if !c.doneClosed && !c.Alive() {
		c.doneClosed = true
		close(c.done)
	}
}

// Start launches the cluster clock when there is a tick interval; the
// engines and the epoch workers need no starting.
func (c *Cluster) Start() {
	c.startOnce.Do(func() {
		if c.cfg.TickInterval > 0 {
			go c.runTicker()
		}
	})
}

func (c *Cluster) runTicker() {
	ticker := time.NewTicker(c.cfg.TickInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if err := c.Tick(); err != nil {
				if errors.Is(err, serve.ErrStopped) {
					return
				}
				c.cfg.Logf("cluster: tick error: %v", err)
			}
		case <-c.tickerStop:
			return
		case <-c.done:
			return
		}
	}
}

// Tick advances every shard by one slot in lockstep, aggregates the
// slot's realized reward across shards, and delivers that global signal
// to every shard's threshold learner — the same reward stream a
// single-engine bandit would see, which is what keeps learners
// identical across shard counts. Returns serve.ErrStopped once every
// shard has exited.
func (c *Cluster) Tick() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tickLocked()
}

func (c *Cluster) tickLocked() error {
	if c.clockStopped {
		return serve.ErrStopped
	}
	// Cross-partition handovers fire before the shards tick, so a
	// request handed over at slot t is schedulable at its new station in
	// slot t — the same slot a single engine's drift script re-points it.
	if c.crossCur < len(c.crossHandovers) {
		c.applyCrossHandoversLocked()
	}
	// One barrier runs the slot on every shard, fused with the
	// previous slot's deferred feedback and — on sweep slots — the
	// free-capacity refresh the migration pricing needs. A single shard
	// has no migration target, so it never sweeps.
	wantFree := len(c.nodes) > 1 && c.cfg.MigrationEvery > 0 && (c.slot+1)%c.cfg.MigrationEvery == 0
	c.epoch(epochMsg{op: epTick, fbSlot: c.fbSlot, fbReward: c.fbReward, hasFB: c.fbValid, wantFree: wantFree})
	c.fbValid = false
	c.markDoneLocked()
	alive := 0
	for _, nd := range c.nodes {
		switch {
		case nd.err == nil:
			alive++
		case !errors.Is(nd.err, serve.ErrStopped):
			return nd.err
		}
	}

	t := c.slot
	total := 0.0
	admitted := c.tickAdmitted[:0]
	for _, nd := range c.nodes {
		for _, r := range nd.takeReports() {
			total += r.reward
			admitted = append(admitted, r.admitted...)
		}
	}
	c.tickAdmitted = admitted
	// Defer the globally aggregated reward to the next epoch: the
	// learners see feedback(t) before Step(t+1), exactly as the serial
	// DeliverFeedback loop delivered it, at no extra barrier.
	c.fbSlot, c.fbReward, c.fbValid = t, total, true
	c.slot++
	c.lastTickNano.Store(time.Now().UnixNano())

	if c.cfg.SlotObserver != nil {
		slices.Sort(admitted)
		c.cfg.SlotObserver(t, admitted, total)
	}
	if wantFree {
		c.sweepLocked()
	}
	if c.cfg.CheckpointPath != "" && c.slot%c.cfg.CheckpointEvery == 0 {
		if err := c.checkpointLocked(!c.cfg.AsyncCheckpoint); err != nil {
			c.cfg.Logf("cluster: checkpoint failed: %v", err)
		}
	}
	if alive == 0 {
		return serve.ErrStopped
	}
	return nil
}

// settleFeedbackLocked delivers any pending deferred feedback now, via
// an epSettle barrier. Checkpoints call it first so the captured bandit
// state is post-feedback — byte-identical to what the pre-fusion serial
// schedule wrote — and a restored cluster starts with no feedback owed.
func (c *Cluster) settleFeedbackLocked() error {
	if !c.fbValid {
		return nil
	}
	c.epoch(epochMsg{op: epSettle, fbSlot: c.fbSlot, fbReward: c.fbReward, hasFB: true})
	c.fbValid = false
	for _, nd := range c.nodes {
		if nd.err != nil {
			return nd.err
		}
	}
	return nil
}

// localSpec remaps a spec's access station into a shard's local index.
// When the shard does not own the access station (a spanning request
// homed elsewhere), the nearest owned candidate station stands in —
// deterministic, and the documented approximation of the home-shard
// rule.
func (c *Cluster) localSpec(shard int, spec serve.RequestSpec, spanCands []int) serve.RequestSpec {
	nd := c.nodes[shard]
	if l, ok := nd.localOf[spec.AccessStation]; ok {
		spec.AccessStation = l
		return spec
	}
	var owned []int
	for _, st := range spanCands {
		if c.owner[st] == shard {
			owned = append(owned, st)
		}
	}
	if len(owned) == 0 {
		owned = nd.stations
	}
	nearest, _ := c.net.NearestStation(spec.AccessStation, owned)
	if l, ok := nd.localOf[nearest]; ok {
		spec.AccessStation = l
	} else {
		spec.AccessStation = 0
	}
	return spec
}

// Submit routes one request to its owning shard and returns its id and
// the shard's current slot.
func (c *Cluster) Submit(spec serve.RequestSpec) (uint64, int, error) {
	shard, spanCands, err := c.router.route(spec)
	if err != nil {
		return 0, 0, err
	}
	req := []routed{{shard: shard, cands: spanCands}}
	c.router.reserve(req)
	slot, err := c.nodes[shard].eng.SubmitAs(req[0].id, c.localSpec(shard, spec, spanCands))
	if err != nil {
		return 0, 0, err
	}
	if spanCands != nil {
		c.router.list(req)
	}
	return req[0].id, slot, nil
}

// batchScratch is SubmitBatch's pooled routing scratch. The engines copy
// every spec they keep, and read their ids, before replying, so the
// per-shard slices are free for reuse as soon as the call returns.
type batchScratch struct {
	routes   []routed
	perShard [][]serve.RequestSpec
	ids      [][]uint64
	shed     []int
	shardErr []error
	listed   []routed // the accepted spanning requests among routes
}

// reset sizes the scratch for one batch over `shards` shards.
func (sc *batchScratch) reset(specs, shards int) {
	if cap(sc.routes) < specs {
		sc.routes = make([]routed, specs)
	}
	sc.routes = sc.routes[:specs]
	if cap(sc.perShard) < shards {
		sc.perShard = make([][]serve.RequestSpec, shards)
		sc.ids = make([][]uint64, shards)
		sc.shed = make([]int, shards)
		sc.shardErr = make([]error, shards)
	}
	sc.perShard = sc.perShard[:shards]
	sc.ids = sc.ids[:shards]
	sc.shed = sc.shed[:shards]
	sc.shardErr = sc.shardErr[:shards]
	for k := 0; k < shards; k++ {
		sc.perShard[k] = sc.perShard[k][:0]
		sc.ids[k] = sc.ids[k][:0]
		sc.shed[k] = 0
		sc.shardErr[k] = nil
	}
}

// SubmitBatch routes a batch across shards, reserves the batch's ids in
// submission order, and submits each shard's slice under its ids through
// the engine's batched-ingest path. The ids of the accepted requests come
// back in submission order. Shards that refuse (saturation, drain) fail
// their requests, whose ids stay unused; the call errors only when every
// spec failed.
func (c *Cluster) SubmitBatch(specs []serve.RequestSpec) (serve.BatchResult, error) {
	if len(specs) == 0 {
		return serve.BatchResult{}, nil
	}
	sc, _ := c.submitScratch.Get().(*batchScratch)
	if sc == nil {
		sc = &batchScratch{}
	}
	defer c.submitScratch.Put(sc)
	sc.reset(len(specs), len(c.nodes))
	routes, perShard := sc.routes, sc.perShard
	for i, spec := range specs {
		shard, spanCands, err := c.router.route(spec)
		if err != nil {
			return serve.BatchResult{}, err
		}
		routes[i] = routed{shard: shard, cands: spanCands}
		perShard[shard] = append(perShard[shard], c.localSpec(shard, spec, spanCands))
	}
	c.router.reserve(routes)
	for _, r := range routes {
		sc.ids[r.shard] = append(sc.ids[r.shard], r.id)
	}
	shardErr := sc.shardErr
	for k, slice := range perShard {
		if len(slice) == 0 {
			continue
		}
		sc.shed[k], shardErr[k] = c.nodes[k].eng.SubmitBatchAs(sc.ids[k], slice)
	}
	// Report what the shards accepted, in submission order.
	out := serve.BatchResult{IDs: make([]uint64, 0, len(specs))}
	var firstErr error
	for _, r := range routes {
		if shardErr[r.shard] != nil {
			if firstErr == nil {
				firstErr = shardErr[r.shard]
			}
			continue
		}
		out.IDs = append(out.IDs, r.id)
		if r.cands != nil {
			sc.listed = append(sc.listed, r)
		}
	}
	if len(out.IDs) == 0 {
		return serve.BatchResult{}, firstErr
	}
	c.router.list(sc.listed)
	clear(sc.listed) // the worklist owns the candidate lists now
	sc.listed = sc.listed[:0]
	for k, shed := range sc.shed {
		if shardErr[k] == nil {
			out.Shed += shed
		}
	}
	return out, nil
}

// Flush moves every accepted batch into the shard planners, all shards in
// one epoch; replay harnesses call it before ticking.
func (c *Cluster) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.clockStopped {
		return nil
	}
	c.epoch(epochMsg{op: epFlush})
	for _, nd := range c.nodes {
		if nd.err != nil {
			return nd.err
		}
	}
	return nil
}

// Status resolves an id to its current record; migrated requests resolve
// at their new owner.
func (c *Cluster) Status(id uint64) (serve.RequestRecord, bool, error) {
	shard, ok := c.router.lookup(id)
	if !ok {
		return serve.RequestRecord{}, false, nil
	}
	return c.nodes[shard].eng.Status(id)
}

// ValidateSpec checks a spec against the full topology exactly as the
// owning shard's intake would.
func (c *Cluster) ValidateSpec(spec serve.RequestSpec) error {
	return serve.ValidateSpec(c.net, spec)
}

// Drain closes intake on every shard; the cluster keeps ticking (via
// its internal clock or the caller's) until every shard has decided its
// pending requests and released its streams. It takes the clock lock so
// no migration or handover is between its extract and its re-submit when
// the shards start refusing; from here on the clock starts neither.
func (c *Cluster) Drain() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drainFlag.Store(true)
	defer c.markDoneLocked()
	for _, nd := range c.nodes {
		if err := ignoreStopped(nd.eng.Drain()); err != nil {
			return err
		}
	}
	return nil
}

// Stop writes a final manifest — synchronously, even with
// AsyncCheckpoint, so the newest generation is on disk when Stop
// returns — then retires the epoch workers and the checkpoint writer
// and halts every shard.
func (c *Cluster) Stop() error {
	var err error
	c.stopOnce.Do(func() {
		close(c.tickerStop)
		c.mu.Lock()
		if c.cfg.CheckpointPath != "" {
			if cerr := c.checkpointLocked(true); cerr != nil {
				c.cfg.Logf("cluster: final manifest failed: %v", cerr)
				err = cerr
			}
		}
		// Mark the clock dead BEFORE closing the worker channels: a Tick
		// blocked on c.mu across this critical section sees clockStopped
		// instead of sending on a closed channel.
		c.clockStopped = true
		for _, nd := range c.nodes[1:] {
			close(nd.epochC)
		}
		for _, nd := range c.nodes {
			_ = nd.eng.Stop()
		}
		c.markDoneLocked()
		c.mu.Unlock()
		if c.ckw != nil {
			c.ckw.Close()
		}
	})
	return err
}

// WaitCheckpoints blocks until every asynchronously submitted manifest
// generation has reached disk. A no-op without a checkpoint path.
func (c *Cluster) WaitCheckpoints() {
	if c.ckw != nil {
		c.ckw.Wait()
	}
}

// CheckpointsDropped reports how many extracted snapshot generations
// were superseded by a newer one before reaching disk.
func (c *Cluster) CheckpointsDropped() uint64 {
	if c.ckw == nil {
		return 0
	}
	return c.ckw.Dropped()
}

// Done is closed when every shard engine has exited, by the cluster call
// that saw the last one go.
func (c *Cluster) Done() <-chan struct{} { return c.done }

// Alive reports whether any shard engine still runs.
func (c *Cluster) Alive() bool {
	for _, nd := range c.nodes {
		if nd.eng.Alive() {
			return true
		}
	}
	return false
}

// Draining reports whether cluster intake is closed.
func (c *Cluster) Draining() bool { return c.drainFlag.Load() || !c.Alive() }

// Ready reports scheduling liveness: every shard alive, intake open,
// and — under the internal clock — a cluster tick within the last three
// intervals.
func (c *Cluster) Ready() bool {
	if c.Draining() {
		return false
	}
	for _, nd := range c.nodes {
		if !nd.eng.Alive() {
			return false
		}
	}
	if c.cfg.TickInterval <= 0 {
		return true
	}
	last := c.lastTickNano.Load()
	if last == 0 {
		return false
	}
	return time.Since(time.Unix(0, last)) < 3*c.cfg.TickInterval
}

// Shards returns the shard count.
func (c *Cluster) Shards() int { return len(c.nodes) }

// Slot returns the cluster clock's next slot.
func (c *Cluster) Slot() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.slot
}

// Partition returns the per-shard global station sets.
func (c *Cluster) PartitionTable() [][]int {
	out := make([][]int, len(c.parts))
	for k, p := range c.parts {
		out[k] = append([]int(nil), p...)
	}
	return out
}

// RouterStats returns the routing counters.
func (c *Cluster) RouterStats() RouterStats { return c.router.stats() }

// Totals sums the shards' cumulative counters, with Submitted counting
// every accepted request once: the clock's handoff re-submissions are
// subtracted (read under the clock lock, so the sum and the correction
// agree; checkpoints persist the corrected figure, so it holds across
// restarts). Ticks counts shard slots; Slot is the cluster clock.
func (c *Cluster) Totals() serve.Totals {
	c.mu.Lock()
	defer c.mu.Unlock()
	var t serve.Totals
	for _, nd := range c.nodes {
		addTotals(&t, nd.eng.Metrics().Totals())
		t.Submitted -= nd.rehomedIn
	}
	return t
}
