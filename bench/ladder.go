package main

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"time"

	"mecoffload/internal/cluster"
	"mecoffload/internal/core"
	"mecoffload/internal/mec"
	"mecoffload/internal/rnd"
	"mecoffload/internal/serve"
	"mecoffload/internal/sim"
	params "mecoffload/internal/workload"
)

// The traced run replays one arrival trace, slot by slot, through four
// twins of the serving path — the twin ladder:
//
//	A  httpRung     cluster behind the HTTP handler (the timed path)
//	B  clusterRung  the cluster's public functions, called as the handler calls them
//	C  engineRung   a bare serve.Engine over the whole topology
//	D  simRung      a sim live engine with a timing decorator around DynamicRR
//
// Each rung is timed from outside at its public functions; a rung's self
// time is its span minus the matching span of the rung below.

// slotTimes holds one slot's spans across the rungs, in microseconds.
type slotTimes struct {
	n int // arrivals

	post                          float64 // A
	decode, validate, clSubmit    float64 // B
	clFlush, clTick, shardStepMax float64 // B
	sweep, checkpointed           bool    // B
	enSubmit, enFlush, enTick     float64 // C
	simStep, simSchedule          float64 // D
	simPending, simAdmitted       float64 // D
}

// clusterRung is rung B.
type clusterRung struct {
	w     *workload
	cl    *cluster.Cluster
	spans *spanLog
	dec   decisions

	lines                 int
	statusUS, writepromUS []float64
	promBuf               bytes.Buffer
	stepSumMS             []float64 // per shard, the cluster's own step-duration sum
	aborted               int
}

func newClusterRung(w *workload, net *mec.Network, seed int64, scratch string, spans *spanLog) (*clusterRung, error) {
	b := &clusterRung{w: w, spans: spans, stepSumMS: make([]float64, w.shards)}
	dir, err := os.MkdirTemp(scratch, "ckpt-")
	if err != nil {
		return nil, err
	}
	cfg := clusterConfig(w, net, seed, dir)
	cfg.SlotObserver = b.dec.observe
	if b.cl, err = cluster.New(cfg); err != nil {
		return nil, err
	}
	b.cl.Start()
	return b, nil
}

func (b *clusterRung) close() {
	_ = b.cl.Stop() // a failed final manifest only matters to a restart
	b.cl.WaitCheckpoints()
}

// timed runs f and records it as a span.
func timed(l *spanLog, name, parent string, slot int, f func()) float64 {
	t0 := time.Now()
	f()
	t1 := time.Now()
	l.add(name, parent, slot, t0, t1)
	return us(t1.Sub(t0))
}

// cycle does what the batch handler and the clock do for slot t, one
// public call at a time, and returns the decoded specs and accepted ids
// for the rungs below.
func (b *clusterRung) cycle(t int, body []byte, sample []int, st *slotTimes) ([]serve.RequestSpec, error) {
	var (
		specs []serve.RequestSpec
		ids   []uint64
		err   error
	)
	if st.n > 0 {
		var lines []serve.BatchLine
		st.decode = timed(b.spans, "serve.decode", "http.post", t, func() {
			lines, _, err = serve.DecodeBatch(bytes.NewReader(body), 0, 0)
		})
		if err != nil || len(lines) != st.n {
			return nil, fmt.Errorf("slot %d: decode: %d of %d lines, %v", t, len(lines), st.n, err)
		}
		b.lines += len(lines)
		specs = make([]serve.RequestSpec, 0, len(lines))
		st.validate = timed(b.spans, "cluster.validate", "http.post", t, func() {
			for _, ln := range lines {
				if err = b.cl.ValidateSpec(ln.Spec); err != nil {
					return
				}
				specs = append(specs, ln.Spec)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("slot %d: validate: %w", t, err)
		}
		st.clSubmit = timed(b.spans, "cluster.submit_batch", "http.post", t, func() {
			var res serve.BatchResult
			res, err = b.cl.SubmitBatch(specs)
			ids = res.IDs
		})
		if err != nil {
			return nil, fmt.Errorf("slot %d: cluster submit: %w", t, err)
		}
	}
	st.clFlush = timed(b.spans, "cluster.flush", "http.cycle", t, func() { err = b.cl.Flush() })
	if err != nil {
		return nil, fmt.Errorf("slot %d: cluster flush: %w", t, err)
	}
	st.clTick = timed(b.spans, "cluster.tick", "http.cycle", t, func() { err = b.cl.Tick() })
	if err != nil {
		return nil, fmt.Errorf("slot %d: cluster tick: %w", t, err)
	}
	// With one shard the sweep finds no spanning request, but its
	// free-capacity refresh still runs.
	st.sweep = (t+1)%migrationEvery == 0
	st.checkpointed = b.w.checkpoint && (t+1)%checkpointEvery == 0
	if st.sweep {
		for _, m := range b.cl.Migrations() {
			if m.Slot == t+1 && m.Phase == cluster.PhaseAborted {
				b.aborted++
			}
		}
	}
	if b.w.shards > 1 {
		if err := b.readShardSteps(st); err != nil {
			return nil, err
		}
	}
	if len(sample) > 0 {
		s0 := time.Now()
		for _, i := range sample {
			g0 := time.Now()
			_, ok, err := b.cl.Status(ids[i])
			b.statusUS = append(b.statusUS, us(time.Since(g0)))
			if err != nil || !ok {
				return nil, fmt.Errorf("slot %d: cluster status %d: known=%v, %v", t, ids[i], ok, err)
			}
		}
		b.spans.add("cluster.status", "http.status", t, s0, time.Now())
	}
	return specs, nil
}

// readShardSteps reads every shard's own step-duration sum from the
// cluster's exposition: the only outside view of the slowest shard's
// serve tick, which cluster.tick's self time subtracts on a sharded
// workload. It runs outside every span.
func (b *clusterRung) readShardSteps(st *slotTimes) error {
	b.promBuf.Reset()
	if err := b.cl.WriteProm(&b.promBuf); err != nil {
		return err
	}
	sums := promPerShard(b.promBuf.Bytes(), "arserved_cluster_slot_duration_ms_sum", b.w.shards)
	for k, s := range sums {
		if d := (s - b.stepSumMS[k]) * 1000; d > st.shardStepMax {
			st.shardStepMax = d
		}
		b.stepSumMS[k] = s
	}
	return nil
}

func (b *clusterRung) writeProm(t int) error {
	var err error
	d := timed(b.spans, "cluster.writeprom", "http.metrics", t, func() { err = b.cl.WriteProm(io.Discard) })
	b.writepromUS = append(b.writepromUS, d)
	return err
}

// engineRung is rung C: the engine a 1-shard cluster wraps, seeded as the
// cluster seeds its shard 0, so on the 1-shard workloads it must decide
// exactly as rung B does.
type engineRung struct {
	eng   *serve.Engine
	spans *spanLog
	dec   decisions
	sort  []uint64

	reqs                           int
	statusNS, snapshotMS           []float64
	ringMax, stagedMax, pendingMax float64
}

func newEngineRung(net *mec.Network, seed int64, spans *spanLog) (*engineRung, error) {
	c := &engineRung{spans: spans}
	var err error
	c.eng, err = serve.New(serve.Config{
		Net:       net,
		Rng:       rnd.New(seed, "cluster-shard-0"),
		RetrySeed: rnd.Derive(seed, "cluster-retry-0"),
		DecisionObserver: func(slot int, admitted []uint64, reward float64) {
			// The engine reports admission order; the cluster sorts.
			c.sort = append(c.sort[:0], admitted...)
			slices.Sort(c.sort)
			c.dec.observe(slot, c.sort, reward)
		},
	})
	if err != nil {
		return nil, err
	}
	c.eng.Start()
	return c, nil
}

func (c *engineRung) cycle(t int, specs []serve.RequestSpec, sample []int, st *slotTimes) error {
	var (
		ids []uint64
		err error
	)
	if len(specs) > 0 {
		c.reqs += len(specs)
		st.enSubmit = timed(c.spans, "serve.submit_batch", "cluster.submit_batch", t, func() {
			var res serve.BatchResult
			res, err = c.eng.SubmitBatch(specs)
			ids = res.IDs
		})
		if err != nil {
			return fmt.Errorf("slot %d: engine submit: %w", t, err)
		}
		c.ringMax = max(c.ringMax, float64(c.eng.RingDepth()))
		c.stagedMax = max(c.stagedMax, float64(c.eng.StagedDepth()))
	}
	st.enFlush = timed(c.spans, "serve.flush", "cluster.flush", t, func() { err = c.eng.Flush() })
	if err != nil {
		return fmt.Errorf("slot %d: engine flush: %w", t, err)
	}
	c.pendingMax = max(c.pendingMax, float64(c.eng.Metrics().PendingDepth.Load()))
	st.enTick = timed(c.spans, "serve.tick", "cluster.tick", t, func() { err = c.eng.Tick() })
	if err != nil {
		return fmt.Errorf("slot %d: engine tick: %w", t, err)
	}
	if len(sample) > 0 {
		s0 := time.Now()
		for _, i := range sample {
			g0 := time.Now()
			_, ok, err := c.eng.Status(ids[i])
			c.statusNS = append(c.statusNS, float64(time.Since(g0)))
			if err != nil || !ok {
				return fmt.Errorf("slot %d: engine status %d: known=%v, %v", t, ids[i], ok, err)
			}
		}
		c.spans.add("serve.status", "cluster.status", t, s0, time.Now())
	}
	if (t+1)%checkpointEvery == 0 {
		snap := timed(c.spans, "serve.snapshot", "cluster.tick", t, func() { _, err = c.eng.Snapshot() })
		if err != nil {
			return fmt.Errorf("slot %d: engine snapshot: %w", t, err)
		}
		c.snapshotMS = append(c.snapshotMS, snap/1000)
	}
	return nil
}

// timedScheduler is the timing decorator around DynamicRR. It also hands
// the ladder a copy of the scheduler's input on probe slots, for the
// core and lp probes.
type timedScheduler struct {
	inner  *sim.DynamicRR
	lastUS float64
	probe  bool
	input  *schedInput
}

// schedInput is one captured Schedule call: R_t as DynamicRR trims it
// (increasing expected rate, cut where the free capacity per request
// would fall below the slot's threshold), and the occupancy it saw.
type schedInput struct {
	t      int
	active []int
	used   []float64
	reqs   []*mec.Request
}

func (s *timedScheduler) Name() string                   { return s.inner.Name() }
func (s *timedScheduler) UncertaintyAware() bool         { return s.inner.UncertaintyAware() }
func (s *timedScheduler) Feedback(t int, reward float64) { s.inner.Feedback(t, reward) }
func (s *timedScheduler) Schedule(eng *sim.Engine, res *core.Result, t int, pending []int) ([]int, error) {
	var in *schedInput
	free := 0.0
	if s.probe {
		in = &schedInput{t: t, active: slices.Clone(pending), used: slices.Clone(eng.Used()), reqs: eng.Requests()}
		free = eng.FreeCapacity()
	}
	t0 := time.Now()
	out, err := s.inner.Schedule(eng, res, t, pending)
	s.lastUS = us(time.Since(t0))
	if cth, ok := s.inner.LastThreshold(); in != nil && ok && err == nil {
		slices.SortFunc(in.active, func(a, b int) int {
			if c := cmp.Compare(in.reqs[a].ExpectedRate(), in.reqs[b].ExpectedRate()); c != 0 {
				return c
			}
			return a - b
		})
		if nMax := int(free / cth); nMax > 0 {
			in.active = in.active[:min(nMax, len(in.active))]
			s.input = in
		}
	}
	return out, err
}

// simCompactAfter mirrors serve.Config.CompactAfter's default: the live
// engine rebuilds once this many settled requests pile up, as the serving
// engine's does, so the rung's per-slot cost does not drift with the run.
const simCompactAfter = 4096

// simRung is rung D.
type simRung struct {
	net     *mec.Network
	rng     *rand.Rand
	eng     *sim.Engine
	sched   *timedScheduler
	res     *core.Result
	pending []int
	settled int
	spans   *spanLog
	dec     decisions
	sort    []uint64
	// ext maps a live planner id to the request's submission ordinal, the
	// id space the other rungs' digests use.
	ext  map[int]uint64
	next uint64
}

func newSimRung(net *mec.Network, seed int64, spans *spanLog) (*simRung, error) {
	drr, err := sim.NewDynamicRR(sim.DynamicRROptions{})
	if err != nil {
		return nil, err
	}
	d := &simRung{
		net: net, rng: rnd.New(seed, "cluster-shard-0"), spans: spans,
		sched: &timedScheduler{inner: drr}, res: &core.Result{Algorithm: drr.Name()},
		ext: map[int]uint64{},
	}
	d.eng, err = sim.NewLiveEngine(net, d.rng, 0)
	return d, err
}

// materialize builds the planner request a spec becomes, drawing the
// paper-default outcomes from the rung's own stream exactly as the
// serving engine draws them from its.
func (d *simRung) materialize(spec serve.RequestSpec) (*mec.Request, error) {
	if len(spec.Outcomes) == 0 {
		const support = params.DefaultRateSupport
		unit := params.DefaultMinUnitReward +
			d.rng.Float64()*(params.DefaultMaxUnitReward-params.DefaultMinUnitReward)
		spec.Outcomes = make([]serve.OutcomeSpec, support)
		for i := range spec.Outcomes {
			rate := params.DefaultMinRate +
				float64(i)*(params.DefaultMaxRate-params.DefaultMinRate)/float64(support-1)
			spec.Outcomes[i] = serve.OutcomeSpec{RateMBs: rate, Prob: 1.0 / support, Reward: unit * rate}
		}
	}
	return serve.MaterializeSpec(d.net, spec)
}

func (d *simRung) cycle(t int, specs []serve.RequestSpec, st *slotTimes) error {
	var err error
	timed(d.spans, "sim.append", "serve.flush", t, func() {
		for _, spec := range specs {
			var r *mec.Request
			if r, err = d.materialize(spec); err != nil {
				return
			}
			r.ID, r.ArrivalSlot = len(d.eng.Requests()), t
			if err = d.eng.Append(r); err != nil {
				return
			}
			d.res.Decisions = append(d.res.Decisions, core.Decision{RequestID: r.ID, Station: -1})
			d.pending = append(d.pending, r.ID)
			d.ext[r.ID] = d.next
			d.next++
		}
	})
	if err != nil {
		return fmt.Errorf("slot %d: sim append: %w", t, err)
	}
	st.simPending = float64(len(d.pending))
	d.sched.lastUS = 0
	var rep sim.SlotReport
	s0 := time.Now()
	d.pending, rep, err = d.eng.Step(d.sched, d.res, t, d.pending)
	s1 := time.Now()
	if err != nil {
		return fmt.Errorf("slot %d: sim step: %w", t, err)
	}
	st.simStep, st.simSchedule = us(s1.Sub(s0)), d.sched.lastUS
	st.simAdmitted = float64(len(rep.Admitted))
	d.spans.add("sim.step", "serve.tick", t, s0, s1)
	if st.simSchedule > 0 {
		d.spans.add("sim.schedule", "sim.step", t, s1.Add(-time.Duration(st.simSchedule*1000)), s1)
	}

	d.sort = d.sort[:0]
	for _, j := range rep.Admitted {
		d.sort = append(d.sort, d.ext[j])
	}
	slices.Sort(d.sort)
	d.dec.observe(t, d.sort, rep.Reward)

	for _, j := range rep.Departed {
		delete(d.ext, j)
	}
	for _, j := range rep.Expired {
		delete(d.ext, j)
	}
	d.settled += len(rep.Departed) + len(rep.Expired) + len(rep.Admitted) - len(rep.Served)
	for _, j := range rep.Admitted {
		if !d.res.Decisions[j].Served {
			delete(d.ext, j)
		}
	}
	if d.settled > simCompactAfter {
		return d.compact()
	}
	return nil
}

// compact rebuilds the live engine from the pending and running requests
// under fresh dense ids, dropping the settled backlog.
func (d *simRung) compact() error {
	running := d.eng.SnapshotRunning()
	keep := slices.Clone(d.pending)
	for _, ru := range running {
		keep = append(keep, ru.Request)
	}
	slices.Sort(keep) // ids are arrival-ordered
	fresh, err := sim.NewLiveEngine(d.net, d.rng, 0)
	if err != nil {
		return err
	}
	res := &core.Result{Algorithm: d.res.Algorithm}
	remap := make(map[int]int, len(keep))
	ext := make(map[int]uint64, len(keep))
	old := d.eng.Requests()
	for id, j := range keep {
		// A struct copy, not CloneShallow: a running request keeps the
		// rate it realized.
		r := *old[j]
		r.ID = id
		if err := fresh.Append(&r); err != nil {
			return err
		}
		remap[j], ext[id] = id, d.ext[j]
		res.Decisions = append(res.Decisions, core.Decision{RequestID: id, Station: -1})
	}
	for i := range running {
		id := remap[running[i].Request]
		running[i].Request = id
		res.Decisions[id].Admitted, res.Decisions[id].Served = true, true
	}
	if err := fresh.RestoreRunning(running); err != nil {
		return err
	}
	for i, j := range d.pending {
		d.pending[i] = remap[j]
	}
	d.eng, d.res, d.ext, d.settled = fresh, res, ext, 0
	return nil
}
