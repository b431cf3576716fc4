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
	// Net is the full MEC topology (required). Each shard schedules over
	// it in its station ids, with the other shards' stations masked out
	// and only the backhaul links among its own partition kept.
	Net *mec.Network
	// Shards is the number of scheduler shards (default 1, at most one
	// per station).
	Shards int
	// DynamicRR, SlotLengthMS, and StepChecker pass through to every
	// shard's serve.Config.
	DynamicRR    sim.DynamicRROptions
	SlotLengthMS float64
	StepChecker  sim.StepChecker
	// TickInterval drives the cluster clock: shards always run with
	// manual ticks, and the cluster advances them in lockstep so slot
	// rewards aggregate globally. Zero means manual Tick (tests, replay).
	TickInterval time.Duration
	// Seed derives every per-shard randomness stream (engine rng and
	// Retry-After jitter) through internal/rnd labels.
	Seed int64
	// CheckpointPath, when set, names the cluster manifest, one file that
	// holds every shard's snapshot. New restores from an existing
	// manifest at any shard count, provided its shards' station lists
	// cover Net's stations exactly once (a manifest written for another
	// topology, an older manifest version or any other file there fails
	// New and is left as it was), and the cluster rewrites it every
	// CheckpointEvery slots (default 50) and at Stop. A periodic
	// checkpoint only extracts copy-on-write shard snapshots under the
	// clock lock (one epoch barrier); JSON encoding, the temp file, fsync
	// and the rename run on a single-flight writer goroutine, and a
	// generation still queued when the next one extracts is dropped
	// (latest wins; counted on /metrics). Stop's final manifest is
	// written synchronously.
	CheckpointPath  string
	CheckpointEvery int
	// AsyncCheckpoint is ignored: periodic checkpoints are always written
	// off the clock. bench/rung.go, its sole setter, still compiles
	// against it.
	AsyncCheckpoint bool
	// Per-shard engine bounds, passed through to serve.Config.
	DoorCapacity int
	MaxPending   int
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
	// epTick runs one slot, fused with the previous slot's deferred
	// feedback when hasFB.
	epTick epochOp = iota
	// epSettle delivers pending deferred feedback without advancing the
	// clock; checkpoints and Stop use it so captured bandit state
	// matches what a synchronous schedule would have written.
	epSettle
	// epSnapshot flushes the door's residue and extracts the shard's
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
	wg       *sync.WaitGroup
}

// shardNode is one scheduler shard: an engine over the shard's masked
// copy of the network (shardNetwork).
type shardNode struct {
	eng *serve.Engine

	// Epoch results. run writes them inside an epoch (on the shard's
	// worker, or on the clock's goroutine for shard 0) and the clock reads
	// them only after the epoch's WaitGroup settles, so the barrier is the
	// only synchronization they need. epochC is nil for shard 0.
	epochC  chan epochMsg
	err     error
	snap    *serve.Checkpoint
	snapErr error

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

	// mu serializes the cluster clock: Tick, Flush, Drain and checkpoint
	// extraction. Intake and Status take only the router's lock and the
	// owning engines' door and table locks.
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
	// tickAdmitted is tickLocked's reusable list of the slot's admitted
	// ids (mu-guarded), grown once and recycled every slot.
	tickAdmitted []uint64
	// submitScratch pools SubmitBatch's routing scratch (candidate list,
	// route table, per-shard specs, ids and results) across concurrent
	// calls.
	submitScratch sync.Pool

	// ckw serializes every checkpoint's disk half (non-nil when
	// CheckpointPath is set; periodic and final writes both route through
	// it so an older in-flight write can never clobber a newer manifest).
	ckw *ckpt.Writer

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

	// Restore from an existing manifest, shard-count-agnostic.
	var restores []*serve.Checkpoint
	if cfg.CheckpointPath != "" {
		// A crash mid-write leaves the manifest's temp file behind; no
		// write to this path is under way before the cluster exists.
		if err := ckpt.RemoveStaleTemps(cfg.CheckpointPath); err != nil {
			cfg.Logf("cluster: removing stale manifest temp files: %v", err)
		}
		man, err := loadManifest(cfg.CheckpointPath)
		if err != nil && !errors.Is(err, ErrNoManifest) {
			return nil, err
		}
		if man != nil {
			restores, err = c.composeRestore(man)
			if err != nil {
				return nil, fmt.Errorf("cluster: restoring manifest: %w", err)
			}
			c.slot = man.Slot
			c.manifestGen = man.Generation
		}
	}

	var traceMu sync.Mutex
	for k := range parts {
		nd := &shardNode{}
		net, err := shardNetwork(cfg.Net, owner, k)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d network: %w", k, err)
		}
		scfg := serve.Config{
			Net:              net,
			DynamicRR:        cfg.DynamicRR,
			SlotLengthMS:     cfg.SlotLengthMS,
			Rng:              rnd.New(cfg.Seed, fmt.Sprintf("cluster-shard-%d", k)),
			RetrySeed:        rnd.Derive(cfg.Seed, fmt.Sprintf("cluster-retry-%d", k)),
			DeferFeedback:    true,
			DecisionObserver: nd.observe,
			StepChecker:      cfg.StepChecker,
			DoorCapacity:     cfg.DoorCapacity,
			MaxPending:       cfg.MaxPending,
			Logf: func(format string, args ...any) {
				cfg.Logf("[shard %d] "+format, append([]any{k}, args...)...)
			},
		}
		if restores != nil {
			scfg.Restore = restores[k]
		}
		switch {
		case cfg.TraceWriter == nil:
		case len(parts) == 1:
			scfg.TraceWriter = cfg.TraceWriter
		default:
			scfg.TraceWriter = &shardTraceWriter{mu: &traceMu, w: cfg.TraceWriter, prefix: fmt.Sprintf("[shard %d] ", k)}
		}
		eng, err := serve.New(scfg)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d engine: %w", k, err)
		}
		nd.eng = eng
		c.nodes = append(c.nodes, nd)
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
	// One barrier runs the slot on every shard, fused with the
	// previous slot's deferred feedback.
	c.epoch(epochMsg{op: epTick, fbSlot: c.fbSlot, fbReward: c.fbReward, hasFB: c.fbValid})
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
	if c.cfg.CheckpointPath != "" && c.slot%c.cfg.CheckpointEvery == 0 {
		if err := c.checkpointLocked(false); err != nil {
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

// homeSpec returns spec as its home shard takes it. When the shard does
// not own the access station — the shard's masked network reaches nothing
// from there — the nearest owned candidate station stands in
// (deterministic; the delay from the true access station to it is lost,
// and a later checkpoint records the stand-in as the access station),
// else the nearest owned station, else the shard's first. For a spanning
// request that happens only when the access station's owner owns no
// candidate, since the router homes it there whenever it does.
func (c *Cluster) homeSpec(shard int, spec serve.RequestSpec, spanCands []int) serve.RequestSpec {
	if c.owner[spec.AccessStation] == shard {
		return spec
	}
	var owned []int
	for _, st := range spanCands {
		if c.owner[st] == shard {
			owned = append(owned, st)
		}
	}
	if len(owned) == 0 {
		owned = c.parts[shard]
	}
	nearest, _ := c.net.NearestStation(spec.AccessStation, owned)
	if nearest < 0 {
		nearest = c.parts[shard][0]
	}
	spec.AccessStation = nearest
	return spec
}

// place routes spec and returns its home shard and the spec as that shard
// takes it. The candidate list is built in sc.cands, and homeSpec reads it
// there, so routing copies nothing.
func (c *Cluster) place(sc *batchScratch, spec serve.RequestSpec) (int, serve.RequestSpec, error) {
	shard, cands, spanning, err := c.router.route(spec, sc.cands[:0])
	if err != nil {
		return 0, spec, err
	}
	sc.cands = cands
	if !spanning {
		cands = nil
	}
	return shard, c.homeSpec(shard, spec, cands), nil
}

// scratch takes a routing scratch from the pool; callers put it back.
func (c *Cluster) scratch() *batchScratch {
	if sc, ok := c.submitScratch.Get().(*batchScratch); ok {
		return sc
	}
	return &batchScratch{}
}

// Submit routes one request to its owning shard and returns its id and
// the slot it arrived in: a SubmitBatch of one, failing as
// serve.Engine.Submit does (serve.Single).
func (c *Cluster) Submit(spec serve.RequestSpec) (uint64, int, error) {
	return serve.Single(c.SubmitBatch([]serve.RequestSpec{spec}))
}

// batchScratch is the pooled routing scratch. The engines copy every spec
// they keep, and read their ids, before replying, so the per-shard slices
// are free for reuse as soon as the call returns.
type batchScratch struct {
	cands    []int // the candidate list of the spec being routed
	routes   []routed
	perShard [][]serve.RequestSpec
	ids      [][]uint64
	res      []serve.BatchResult
	shardErr []error
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
		sc.res = make([]serve.BatchResult, shards)
		sc.shardErr = make([]error, shards)
	}
	sc.perShard = sc.perShard[:shards]
	sc.ids = sc.ids[:shards]
	sc.res = sc.res[:shards]
	sc.shardErr = sc.shardErr[:shards]
	for k := 0; k < shards; k++ {
		sc.perShard[k] = sc.perShard[k][:0]
		sc.ids[k] = sc.ids[k][:0]
		sc.res[k] = serve.BatchResult{}
		sc.shardErr[k] = nil
	}
}

// SubmitBatch routes a batch across shards, reserves the batch's ids in
// submission order, and submits each shard's slice under its ids through
// the engine's door. Routing is the one check a spec passes before its
// shard: a spec checkSpec refuses (serve.ValidateSpec's error, wrapping
// ErrBadSpec) takes no id, reaches no shard and is listed in Refused. The
// ids of the accepted requests come back in submission order, with the
// accepting shards' shed counts summed and the latest of their slots.
// Shards that refuse (saturation, drain) fail their requests, whose ids
// stay unused, and each refused spec is listed in Refused too; the call
// errors, with the first shard's refusal, only when no spec was accepted
// and a shard refused one. A batch whose every spec failed its check
// answers with Refused alone.
func (c *Cluster) SubmitBatch(specs []serve.RequestSpec) (serve.BatchResult, error) {
	if len(specs) == 0 {
		return serve.BatchResult{}, nil
	}
	sc := c.scratch()
	defer c.submitScratch.Put(sc)
	sc.reset(len(specs), len(c.nodes))
	routes, perShard := sc.routes, sc.perShard
	for i, spec := range specs {
		shard, homed, err := c.place(sc, spec)
		if err != nil {
			routes[i] = routed{err: err}
			continue
		}
		routes[i] = routed{shard: shard}
		perShard[shard] = append(perShard[shard], homed)
	}
	c.router.reserve(routes)
	for _, r := range routes {
		if r.err == nil {
			sc.ids[r.shard] = append(sc.ids[r.shard], r.id)
		}
	}
	shardErr := sc.shardErr
	for k, slice := range perShard {
		if len(slice) == 0 {
			continue
		}
		sc.res[k], shardErr[k] = c.nodes[k].eng.SubmitBatchAs(sc.ids[k], slice)
	}
	return mergeShards(routes, sc.res, shardErr)
}

// mergeShards reports what the router and the shards did with a batch, in
// submission order: the ids the shards accepted, and the position of every
// spec the router or its shard refused, with that refusal; the accepting
// shards' shed counts summed and the latest of their slots. It fails, with
// the first shard refusal, only when no spec was accepted and a shard
// refused one.
func mergeShards(routes []routed, results []serve.BatchResult, shardErr []error) (serve.BatchResult, error) {
	out := serve.BatchResult{IDs: make([]uint64, 0, len(routes))}
	var refusal error
	for i, r := range routes {
		switch {
		case r.err != nil:
			out.Refused = append(out.Refused, serve.Refusal{Index: i, Err: r.err})
		case shardErr[r.shard] != nil:
			if refusal == nil {
				refusal = shardErr[r.shard]
			}
			out.Refused = append(out.Refused, serve.Refusal{Index: i, Err: shardErr[r.shard]})
		default:
			out.IDs = append(out.IDs, r.id)
		}
	}
	if len(out.IDs) == 0 && refusal != nil {
		return serve.BatchResult{}, refusal
	}
	for k, res := range results {
		if shardErr[k] == nil {
			out.Shed += res.Shed
			out.Lost += res.Lost
			out.Slot = max(out.Slot, res.Slot)
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

// Status resolves an id to its current record at the shard the router
// homed it on.
func (c *Cluster) Status(id uint64) (serve.RequestRecord, bool, error) {
	shard, ok := c.router.lookup(id)
	if !ok {
		return serve.RequestRecord{}, false, nil
	}
	return c.nodes[shard].eng.Status(id)
}

// ValidateSpec checks a spec against the full topology exactly as
// SubmitBatch's router does. Intake needs no separate check (SubmitBatch
// lists a refused spec in Refused), so this stays only because the
// benchmark's ladder (bench/ladder.go) calls it.
func (c *Cluster) ValidateSpec(spec serve.RequestSpec) error {
	return serve.ValidateSpec(c.net, spec)
}

// Drain closes intake on every shard; the cluster keeps ticking (via
// its internal clock or the caller's) until every shard has decided its
// pending requests and released its streams. It takes the clock lock, so
// no slot or checkpoint is under way while the shards close.
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

// Stop writes a final manifest — synchronously, so the newest generation
// is on disk when Stop returns — then retires the epoch workers and the checkpoint writer
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

// RouterStats returns the routing counters.
func (c *Cluster) RouterStats() RouterStats { return c.router.stats() }

// Totals sums the shards' cumulative counters, read under the clock lock
// so no slot is half counted. Ticks counts shard slots; Slot is the
// cluster clock.
func (c *Cluster) Totals() serve.Totals {
	c.mu.Lock()
	defer c.mu.Unlock()
	var t serve.Totals
	for _, nd := range c.nodes {
		addTotals(&t, nd.eng.Metrics().Totals())
	}
	return t
}
