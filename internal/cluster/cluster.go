package cluster

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
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
	// manual ticks, and the cluster runs every shard's slot itself, in
	// shard order, so slot rewards aggregate globally. Zero means manual
	// Tick (tests, replay).
	TickInterval time.Duration
	// Seed derives, through internal/rnd labels, each shard's engine rng
	// ("cluster-shard-k") and the cluster's one Retry-After jitter stream
	// ("cluster-retry-0").
	Seed int64
	// CheckpointPath, when set, names the cluster manifest, one file that
	// holds every shard's snapshot. New restores from an existing
	// manifest at any shard count, provided its shards' station lists
	// cover Net's stations exactly once (a manifest written for another
	// topology, an older manifest version or any other file there fails
	// New and is left as it was), and the cluster rewrites it every
	// CheckpointEvery slots (default 50) and at Stop. A periodic
	// checkpoint only extracts copy-on-write shard snapshots under the
	// clock lock; JSON encoding, the temp file, fsync
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
	// line (serve.Config.TraceWriter), each slot's lines in shard order, in
	// the same sim.WriteTraceLine format as arsim -trace. With more than
	// one shard each line is prefixed "[shard k] ".
	TraceWriter io.Writer
	// SlotObserver, when set, receives each cluster slot's admitted
	// request ids (ascending) and the globally aggregated reward, after
	// every shard ticked. Replay harnesses use it to build decision
	// dumps for oracle.DiffCluster. The admitted slice is scratch
	// reused on the next slot — copy it if it outlives the call.
	SlotObserver func(slot int, admitted []uint64, reward float64)
}

// shardTraceWriter labels one shard's trace lines on the shared sink. The
// engines write one line per Write from inside their Ticks, which the
// clock runs one after another, so each slot's lines come out in shard
// order.
type shardTraceWriter struct {
	w      io.Writer
	prefix string
}

func (s *shardTraceWriter) Write(p []byte) (int, error) {
	if _, err := io.WriteString(s.w, s.prefix); err != nil {
		return 0, err
	}
	return s.w.Write(p)
}

// Cluster is N scheduler shards behind one router and one clock.
type Cluster struct {
	cfg     Config
	net     *mec.Network
	parts   [][]int
	owner   []int // global station -> shard
	engines []*serve.Engine
	router  *router

	// mu serializes the cluster clock: Tick, Flush, Drain, Stop and
	// checkpoint extraction. Intake and Status take only the router's lock
	// and the owning engines' door and table locks.
	mu          sync.Mutex
	slot        int
	manifestGen uint64
	// tickAdmitted and tickReward are the slot's admitted ids and realized
	// reward over every shard (mu-guarded), which observe collects while
	// tickLocked runs the shards' slots. tickAdmitted is grown once and
	// recycled every slot.
	tickAdmitted []uint64
	tickReward   float64
	// submitScratch pools SubmitBatch's routing scratch (candidate list,
	// route table, per-shard specs, ids and results) across concurrent
	// calls.
	submitScratch sync.Pool

	// ckw serializes every checkpoint's disk half (non-nil when
	// CheckpointPath is set; periodic and final writes both route through
	// it so an older in-flight write can never clobber a newer manifest).
	ckw *ckpt.Writer

	// done closes, under mu, in the call that finds a drain complete
	// (Drain or Tick) or at Stop, whichever comes first (endLocked).
	done         chan struct{}
	tickerStop   chan struct{}
	startOnce    sync.Once
	stopOnce     sync.Once
	lastTickNano atomic.Int64
	drainFlag    atomic.Bool
	checkpoints  atomic.Uint64

	// retryRng is the daemon's one Retry-After jitter stream: every
	// Handler(c) draws its 503 hints from it, so overload answers replay
	// for a given Seed. retryMu guards it; handlers draw concurrently.
	retryMu  sync.Mutex
	retryRng *rand.Rand
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
		retryRng:   rnd.New(rnd.Derive(cfg.Seed, "cluster-retry-0"), "retry-after"),
	}
	c.router = newRouter(cfg.Net, owner)

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

	for k := range parts {
		net, err := shardNetwork(cfg.Net, owner, k)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d network: %w", k, err)
		}
		scfg := serve.Config{
			Net:              net,
			DynamicRR:        cfg.DynamicRR,
			SlotLengthMS:     cfg.SlotLengthMS,
			Rng:              rnd.New(cfg.Seed, fmt.Sprintf("cluster-shard-%d", k)),
			DeferFeedback:    true,
			DecisionObserver: c.observe,
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
			scfg.TraceWriter = &shardTraceWriter{w: cfg.TraceWriter, prefix: fmt.Sprintf("[shard %d] ", k)}
		}
		eng, err := serve.New(scfg)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d engine: %w", k, err)
		}
		c.engines = append(c.engines, eng)
	}
	// The checkpoint writer starts last so no error path above leaks its
	// goroutine; Stop closes it.
	if cfg.CheckpointPath != "" {
		c.ckw = ckpt.NewWriter(cfg.Logf)
	}
	return c, nil
}

// endLocked closes Done, once (callers hold c.mu).
func (c *Cluster) endLocked() {
	if c.Alive() {
		close(c.done)
	}
}

// endIfDrainedLocked closes Done once a drain has been asked for and no
// shard holds a pending request or a running stream (callers hold c.mu).
// Outside a drain it reads one flag and asks no shard.
func (c *Cluster) endIfDrainedLocked() {
	if !c.drainFlag.Load() {
		return
	}
	for _, eng := range c.engines {
		if !eng.Idle() {
			return
		}
	}
	c.endLocked()
}

// Start launches the cluster clock when there is a tick interval; the
// engines need no starting.
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

// Tick advances every shard by one slot, in shard order, aggregates the
// slot's realized reward across shards, and delivers that global signal
// to every shard's threshold learner. A learner updates only in a slot
// where its shard played an arm, one with requests pending, so shard
// learners part ways as soon as one shard idles while another schedules.
// A drain keeps every shard ticking and learning until the last one is
// idle; once the drain is complete, or after Stop, Tick returns
// serve.ErrStopped and runs nothing.
func (c *Cluster) Tick() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tickLocked()
}

func (c *Cluster) tickLocked() error {
	// A drained or stopped cluster has no slot left to run; after Stop
	// this also keeps the clock from writing another manifest.
	if !c.Alive() {
		return serve.ErrStopped
	}
	// The shards run the slot one after another, in shard order.
	t := c.slot
	c.tickAdmitted, c.tickReward = c.tickAdmitted[:0], 0
	for _, eng := range c.engines {
		if err := eng.Tick(); err != nil {
			return err
		}
	}
	// Every learner sees the slot's global reward after Step(t) and before
	// Step(t+1), and a checkpoint taken below captures it.
	total := c.tickReward
	for _, eng := range c.engines {
		if err := eng.DeliverFeedback(t, total); err != nil {
			return err
		}
	}
	c.slot++
	c.lastTickNano.Store(time.Now().UnixNano())

	if c.cfg.SlotObserver != nil {
		slices.Sort(c.tickAdmitted)
		c.cfg.SlotObserver(t, c.tickAdmitted, total)
	}
	if c.cfg.CheckpointPath != "" && c.slot%c.cfg.CheckpointEvery == 0 {
		if err := c.checkpointLocked(false); err != nil {
			c.cfg.Logf("cluster: checkpoint failed: %v", err)
		}
	}
	c.endIfDrainedLocked()
	return nil
}

// observe is every engine's DecisionObserver: it adds the shard's share of
// the slot to tickAdmitted and tickReward. It runs inside the engine's
// Tick, on the clock's goroutine under c.mu; admitted is the engine's
// scratch, so it is copied.
func (c *Cluster) observe(_ int, admitted []uint64, reward float64) {
	c.tickAdmitted = append(c.tickAdmitted, admitted...)
	c.tickReward += reward
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
	sc.reset(len(specs), len(c.engines))
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
		sc.res[k], shardErr[k] = c.engines[k].SubmitBatchAs(sc.ids[k], slice)
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

// Flush moves every accepted batch into the shard planners, in shard
// order; replay harnesses call it before ticking. A drained or stopped
// cluster's doors are closed and empty, so there it does nothing.
func (c *Cluster) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.Alive() {
		return nil
	}
	for _, eng := range c.engines {
		if err := eng.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Status resolves an id to its current record by asking each shard's
// table in turn: an id is held by at most one shard. The shards stop
// together, so after Stop the first one asked answers ErrStopped.
func (c *Cluster) Status(id uint64) (serve.RequestRecord, bool, error) {
	for _, eng := range c.engines {
		if rec, ok, err := eng.Status(id); ok || err != nil {
			return rec, ok, err
		}
	}
	return serve.RequestRecord{}, false, nil
}

// ValidateSpec checks a spec against the full topology exactly as
// SubmitBatch's router does. Intake needs no separate check (SubmitBatch
// lists a refused spec in Refused), so this stays only because the
// benchmark's ladder (bench/ladder.go) calls it.
func (c *Cluster) ValidateSpec(spec serve.RequestSpec) error {
	return serve.ValidateSpec(c.net, spec)
}

// Drain closes intake on every shard and moves each door's residue into
// its planner. The cluster keeps ticking every shard and feeding every
// learner (via its internal clock or the caller's) until no shard holds a
// pending request or a running stream; the call that sees that — this
// one, or a Tick — closes Done. It takes the clock lock, so no slot or
// checkpoint is under way while the shards close. On a drained or stopped
// cluster it does nothing.
func (c *Cluster) Drain() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.Alive() {
		return nil
	}
	c.drainFlag.Store(true)
	for _, eng := range c.engines {
		if err := eng.Drain(); err != nil {
			return err
		}
	}
	c.endIfDrainedLocked()
	return nil
}

// Stop writes a final manifest — synchronously, so the newest generation
// is on disk when Stop returns — then halts every shard and retires the
// checkpoint writer.
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
		for _, eng := range c.engines {
			_ = eng.Stop()
		}
		c.endLocked()
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

// Done closes when the cluster has no slot left to run: in the Drain or
// Tick call that finds every shard idle after a drain was asked for, or
// at Stop, whichever comes first.
func (c *Cluster) Done() <-chan struct{} { return c.done }

// Alive reports whether Done is still open: it turns false when a drain
// completes or at Stop, and never back.
func (c *Cluster) Alive() bool {
	select {
	case <-c.done:
		return false
	default:
		return true
	}
}

// Draining reports whether cluster intake is closed.
func (c *Cluster) Draining() bool { return c.drainFlag.Load() || !c.Alive() }

// Ready reports scheduling liveness: intake open (so the cluster is
// neither draining nor done) and — under the internal clock — a cluster
// tick within the last three intervals.
func (c *Cluster) Ready() bool {
	if c.Draining() {
		return false
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
func (c *Cluster) Shards() int { return len(c.engines) }

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
	for _, eng := range c.engines {
		addTotals(&t, eng.Metrics().Totals())
	}
	return t
}
