package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mecoffload/internal/stats"
)

// maxLadderSlots caps the traced run: four twins in lockstep cost about
// four timed runs per slot, and 1500 timed slots still leave 15 samples
// beyond every p99.
const maxLadderSlots = 1500

// idleScrapeEvery is how often the traced run probes /metrics on the
// workloads that keep it out of their slot cycle.
const idleScrapeEvery = 50

// perLayerMetrics are reported by the traced run. Layers are this
// repository's packages; README.md defines each metric.
var perLayerMetrics = []metricDef{
	{name: "http.post_ms_p50", unit: "ms", better: "lower"},
	{name: "http.post_ms_p99", unit: "ms", better: "lower"},
	{name: "http.post_self_ms_p50", unit: "ms", better: "lower"},
	{name: "http.status_us_p50", unit: "us", better: "lower"},
	{name: "http.status_us_p99", unit: "us", better: "lower"},
	{name: "http.metrics_ms_p50", unit: "ms", better: "lower"},
	{name: "http.errors", unit: "count", better: "lower"},

	{name: "serve.decode_us_per_line", unit: "us", better: "lower"},
	{name: "serve.submit_batch_us_per_req", unit: "us", better: "lower"},
	{name: "serve.flush_us_p50", unit: "us", better: "lower"},
	{name: "serve.tick_us_p50", unit: "us", better: "lower"},
	{name: "serve.tick_us_p99", unit: "us", better: "lower"},
	{name: "serve.tick_self_us_p50", unit: "us", better: "lower"},
	{name: "serve.status_ns_p50", unit: "ns", better: "lower"},
	{name: "serve.snapshot_ms_p50", unit: "ms", better: "lower"},
	{name: "serve.ring_depth_max", unit: "count", better: "lower"},
	{name: "serve.staged_depth_max", unit: "count", better: "lower"},
	{name: "serve.pending_max", unit: "count", better: "lower"},
	{name: "serve.shed", unit: "count", better: "lower"},
	{name: "serve.expired", unit: "count", better: "lower"},
	{name: "serve.evicted", unit: "count", better: "lower"},

	{name: "cluster.submit_batch_us_per_req", unit: "us", better: "lower"},
	{name: "cluster.route_self_us_per_req", unit: "us", better: "lower"},
	{name: "cluster.flush_us_p50", unit: "us", better: "lower"},
	{name: "cluster.tick_us_p50", unit: "us", better: "lower"},
	{name: "cluster.tick_us_p99", unit: "us", better: "lower"},
	{name: "cluster.tick_self_us_p50", unit: "us", better: "lower"},
	{name: "cluster.sweep_tick_ms_p50", unit: "ms", better: "lower"},
	{name: "cluster.plain_tick_us_p50", unit: "us", better: "lower"},
	{name: "cluster.checkpoint_tick_ms_p50", unit: "ms", better: "lower"},
	{name: "cluster.status_us_p50", unit: "us", better: "lower"},
	{name: "cluster.writeprom_us_p50", unit: "us", better: "lower"},
	{name: "cluster.route_fast_ratio", unit: "ratio", better: "higher"},
	{name: "cluster.route_spanning_ratio", unit: "ratio", better: "lower"},
	{name: "cluster.migrations_committed", unit: "count", better: "lower"},
	{name: "cluster.migrations_aborted", unit: "count", better: "lower"},
	{name: "cluster.checkpoints_dropped", unit: "count", better: "lower"},

	{name: "sim.step_us_p50", unit: "us", better: "lower"},
	{name: "sim.step_us_p99", unit: "us", better: "lower"},
	{name: "sim.step_self_us_p50", unit: "us", better: "lower"},
	{name: "sim.schedule_us_p50", unit: "us", better: "lower"},
	{name: "sim.schedule_us_p99", unit: "us", better: "lower"},
	{name: "sim.pending_per_slot", unit: "count", better: "lower"},
	{name: "sim.admitted_per_slot", unit: "count", better: "higher"},

	{name: "core.schedule_batch_us_p50", unit: "us", better: "lower"},
	{name: "core.inc_clean_ratio", unit: "ratio", better: "higher"},
	{name: "core.lr_certified_ratio", unit: "ratio", better: "higher"},
	{name: "core.warm_hit_ratio", unit: "ratio", better: "higher"},

	{name: "lp.solve_warm_us_p50", unit: "us", better: "lower"},
	{name: "lp.solve_cold_us_p50", unit: "us", better: "lower"},
	{name: "lp.pivots_per_solve_warm", unit: "count", better: "lower"},
	{name: "lp.pivots_per_solve_cold", unit: "count", better: "lower"},
	{name: "lp.rows", unit: "count", better: "lower"},
	{name: "lp.cols", unit: "count", better: "lower"},

	{name: "bandit.select_update_ns", unit: "ns", better: "lower"},

	{name: "ckpt.write_ms_p50", unit: "ms", better: "lower"},
	{name: "ckpt.bytes", unit: "bytes", better: "lower"},

	{name: "timed.speed_factor", unit: "ratio", better: "lower"},
	{name: "timed.slot_ms_p50", unit: "ms", better: "lower"},
	{name: "timed.slot_ms_p90", unit: "ms", better: "lower"},
	{name: "timed.slot_ms_p99", unit: "ms", better: "lower"},
	{name: "timed.cycle_ms_p50", unit: "ms", better: "lower"},
	{name: "timed.cycle_ms_p99", unit: "ms", better: "lower"},

	{name: "runtime.gc_cycles", unit: "count", better: "lower"},
	{name: "runtime.gc_pause_ms_max", unit: "ms", better: "lower"},
	{name: "runtime.heap_mb_peak", unit: "MB", better: "lower"},
	{name: "runtime.allocs_per_req", unit: "count", better: "lower"},
}

// selfTime is one rung's self time against its parent span, both medians.
type selfTime struct {
	name         string
	self, parent float64
}

// tracedResult is everything the traced ladder run measured.
type tracedResult struct {
	slots   int
	metrics map[string]float64
	// overheadMS is traced minus untraced median cycle, both as measured.
	overheadMS float64
	selfTimes  []selfTime
	// simParity is how many slots rung D decided exactly as rung C.
	simParity int
	spanFile  string
	spanCount int
	// checkErr is the traced run's output check; nil means correct.
	checkErr error
}

// col extracts one field of the timed slots.
func col(slots []slotTimes, f func(*slotTimes) (float64, bool)) []float64 {
	out := make([]float64, 0, len(slots))
	for i := range slots {
		if v, ok := f(&slots[i]); ok {
			out = append(out, v)
		}
	}
	return out
}

// runTraced replays the timed run's first slots through the twin ladder
// and derives the per-layer metrics. timed is the same seed's untraced
// run, whose decisions the ladder must reproduce.
func runTraced(w *workload, seed int64, warmup, slots int, scratch, outDir string, timed *timedResult) (*tracedResult, error) {
	n := min(slots, maxLadderSlots)
	total := warmup + n
	net, err := w.network()
	if err != nil {
		return nil, err
	}
	tr, err := generateTrace(w, net, seed, total)
	if err != nil {
		return nil, err
	}
	spans := &spanLog{epoch: time.Now()}
	a, err := newHTTPRung(w, net, tr, seed, scratch, spans)
	if err != nil {
		return nil, err
	}
	defer a.close()
	b, err := newClusterRung(w, net, seed, scratch, spans)
	if err != nil {
		return nil, err
	}
	defer b.close()
	c, err := newEngineRung(net, seed, spans)
	if err != nil {
		return nil, err
	}
	defer func() { _ = c.eng.Stop() }() // no checkpoint path: nothing to lose
	d, err := newSimRung(net, seed, spans)
	if err != nil {
		return nil, err
	}
	probes := newLayerProbes(net, seed)

	scrapeEvery := w.metricsEvery
	if scrapeEvery == 0 {
		scrapeEvery = idleScrapeEvery
	}
	times := make([]slotTimes, total)
	for t := 0; t < total; t++ {
		if t == warmup {
			a.resetSamples()
			b.statusUS, b.writepromUS, b.lines, b.aborted = nil, nil, 0, 0
			c.statusNS, c.snapshotMS, c.reqs = nil, nil, 0
		}
		st := &times[t]
		st.n = tr.counts[t]
		if err := a.cycle(t); err != nil {
			return nil, err
		}
		if st.n > 0 {
			st.post = 1000 * a.postMS[len(a.postMS)-1]
		}
		if w.metricsEvery == 0 && t%scrapeEvery == 0 {
			if err := a.scrape(t); err != nil {
				return nil, err
			}
		}
		specs, err := b.cycle(t, tr.bodies[t], tr.sample[t], st)
		if err != nil {
			return nil, err
		}
		if t%scrapeEvery == 0 {
			if err := b.writeProm(t); err != nil {
				return nil, err
			}
		}
		if err := c.cycle(t, specs, tr.sample[t], st); err != nil {
			return nil, err
		}
		i := t - warmup
		d.sched.probe = i >= 0 && i%probeEvery < 2
		if err := d.cycle(t, specs, st); err != nil {
			return nil, err
		}
		if in := d.sched.input; in != nil {
			d.sched.input = nil
			if err := probes.observe(in); err != nil {
				return nil, err
			}
		}
	}

	ts := times[warmup:]
	res := &tracedResult{slots: n, metrics: map[string]float64{}}
	m := res.metrics
	for k, v := range timed.timed {
		m[k] = v
	}
	arrivals := func(f func(*slotTimes) float64) []float64 {
		return col(ts, func(s *slotTimes) (float64, bool) { return f(s), s.n > 0 })
	}
	every := func(f func(*slotTimes) float64) []float64 {
		return col(ts, func(s *slotTimes) (float64, bool) { return f(s), true })
	}
	lines := float64(b.lines)

	// http: rung A, self time against rung B's handler-side calls.
	post := arrivals(func(s *slotTimes) float64 { return s.post })
	postSelf := arrivals(func(s *slotTimes) float64 { return s.post - s.decode - s.validate - s.clSubmit })
	m["http.post_ms_p50"] = median(post) / 1000
	m["http.post_ms_p99"] = stats.Percentile(post, 99) / 1000
	m["http.post_self_ms_p50"] = median(postSelf) / 1000
	m["http.status_us_p50"] = median(a.statusUS)
	m["http.status_us_p99"] = stats.Percentile(a.statusUS, 99)
	m["http.metrics_ms_p50"] = median(a.metricsMS)
	m["http.errors"] = float64(a.failed)

	// serve: rung C, plus rung B's decode.
	em := c.eng.Metrics()
	enTick := every(func(s *slotTimes) float64 { return s.enTick })
	enSelf := every(func(s *slotTimes) float64 { return s.enTick - s.simStep })
	m["serve.decode_us_per_line"] = ratio(stats.Sum(arrivals(func(s *slotTimes) float64 { return s.decode })), lines)
	enSubmit := stats.Sum(arrivals(func(s *slotTimes) float64 { return s.enSubmit }))
	m["serve.submit_batch_us_per_req"] = ratio(enSubmit, float64(c.reqs))
	m["serve.flush_us_p50"] = median(every(func(s *slotTimes) float64 { return s.enFlush }))
	m["serve.tick_us_p50"] = median(enTick)
	m["serve.tick_us_p99"] = stats.Percentile(enTick, 99)
	m["serve.tick_self_us_p50"] = median(enSelf)
	m["serve.status_ns_p50"] = median(c.statusNS)
	m["serve.snapshot_ms_p50"] = median(c.snapshotMS)
	m["serve.ring_depth_max"] = c.ringMax
	m["serve.staged_depth_max"] = c.stagedMax
	m["serve.pending_max"] = c.pendingMax
	m["serve.shed"] = float64(em.Shed.Load())
	m["serve.expired"] = float64(em.Expired.Load())
	m["serve.evicted"] = float64(em.Evicted.Load())

	// cluster: rung B. Below a 1-shard cluster sits rung C; below a
	// sharded one, the slowest shard's own step timer.
	clTick := every(func(s *slotTimes) float64 { return s.clTick })
	clSelf := every(func(s *slotTimes) float64 {
		if w.shards > 1 {
			return s.clTick - s.shardStepMax
		}
		return s.clTick - s.enTick
	})
	clSubmit := stats.Sum(arrivals(func(s *slotTimes) float64 { return s.clSubmit }))
	m["cluster.submit_batch_us_per_req"] = ratio(clSubmit, lines)
	m["cluster.route_self_us_per_req"] = ratio(clSubmit-enSubmit, lines)
	m["cluster.flush_us_p50"] = median(every(func(s *slotTimes) float64 { return s.clFlush }))
	m["cluster.tick_us_p50"] = median(clTick)
	m["cluster.tick_us_p99"] = stats.Percentile(clTick, 99)
	m["cluster.tick_self_us_p50"] = median(clSelf)
	m["cluster.sweep_tick_ms_p50"] = median(col(ts, func(s *slotTimes) (float64, bool) { return s.clTick, s.sweep })) / 1000
	m["cluster.plain_tick_us_p50"] = median(col(ts, func(s *slotTimes) (float64, bool) { return s.clTick, !s.sweep && !s.checkpointed }))
	m["cluster.checkpoint_tick_ms_p50"] = median(col(ts, func(s *slotTimes) (float64, bool) { return s.clTick, s.checkpointed })) / 1000
	m["cluster.status_us_p50"] = median(b.statusUS)
	m["cluster.writeprom_us_p50"] = median(b.writepromUS)
	rs := b.cl.RouterStats()
	m["cluster.route_fast_ratio"] = ratio(float64(rs.FastPath), float64(rs.Routed))
	m["cluster.route_spanning_ratio"] = ratio(float64(rs.Spanning), float64(rs.Routed))
	in, _ := b.cl.MigratedCounts()
	for _, k := range in {
		m["cluster.migrations_committed"] += float64(k)
	}
	m["cluster.migrations_aborted"] = float64(b.aborted)
	m["cluster.checkpoints_dropped"] = float64(b.cl.CheckpointsDropped())

	// sim: rung D.
	step := every(func(s *slotTimes) float64 { return s.simStep })
	sched := every(func(s *slotTimes) float64 { return s.simSchedule })
	m["sim.step_us_p50"] = median(step)
	m["sim.step_us_p99"] = stats.Percentile(step, 99)
	m["sim.step_self_us_p50"] = median(every(func(s *slotTimes) float64 { return s.simStep - s.simSchedule }))
	m["sim.schedule_us_p50"] = median(sched)
	m["sim.schedule_us_p99"] = stats.Percentile(sched, 99)
	m["sim.pending_per_slot"] = stats.Sum(every(func(s *slotTimes) float64 { return s.simPending })) / float64(n)
	m["sim.admitted_per_slot"] = stats.Sum(every(func(s *slotTimes) float64 { return s.simAdmitted })) / float64(n)

	// core, lp, bandit, ckpt: the probes, and the engine's own counters.
	inc := c.eng.IncStats()
	hits, misses := c.eng.WarmStats()
	m["core.schedule_batch_us_p50"] = median(probes.coreUS)
	m["core.inc_clean_ratio"] = ratio(float64(inc.CleanHits), float64(inc.CleanHits+inc.DirtySolves))
	m["core.lr_certified_ratio"] = ratio(float64(inc.FastPath), float64(inc.FastPath+inc.FastFallback))
	m["core.warm_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	m["lp.solve_warm_us_p50"] = median(probes.warmUS)
	m["lp.solve_cold_us_p50"] = median(probes.coldUS)
	m["lp.pivots_per_solve_warm"] = ratio(probes.warmPiv, probes.solves)
	m["lp.pivots_per_solve_cold"] = ratio(probes.coldPiv, probes.solves)
	m["lp.rows"] = ratio(probes.rows, probes.solves)
	m["lp.cols"] = ratio(probes.cols, probes.solves)
	if m["bandit.select_update_ns"], err = banditSelectUpdateNS(seed); err != nil {
		return nil, err
	}
	if m["ckpt.write_ms_p50"], m["ckpt.bytes"], err = checkpointWrite(c.eng, scratch); err != nil {
		return nil, err
	}

	res.overheadMS = median(a.cycleMS) - timed.timed["timed.cycle_ms_p50"]
	res.selfTimes = []selfTime{
		{"http.post_self", median(postSelf), median(post)},
		{"cluster.route_self", clSubmit - enSubmit, clSubmit},
		{"cluster.tick_self", median(clSelf), median(clTick)},
		{"serve.tick_self", median(enSelf), median(enTick)},
		{"sim.step_self", m["sim.step_self_us_p50"], median(step)},
	}
	res.simParity = firstDivergence(&c.dec, &d.dec)
	if res.simParity < 0 {
		res.simParity = total
	}

	res.checkErr = ladderCheck(w, timed, a, b, c)
	res.spanFile = filepath.Join(outDir, "trace-"+w.name+".json")
	res.spanCount = len(spans.spans)
	if err := writeSpans(res.spanFile, w, seed, warmup, n, spans); err != nil {
		return nil, err
	}
	return res, nil
}

// ladderCheck is the traced run's output check: the ladder's top rung
// decided every slot as the timed run of the same seed did, rung B as
// rung A, on a 1-shard workload rung C as rung B, and the oracle's step
// checker saw no capacity or conservation violation.
func ladderCheck(w *workload, timed *timedResult, a *httpRung, b *clusterRung, c *engineRung) error {
	if a.viol.first != nil {
		return fmt.Errorf("oracle.EngineChecker: %d violations, first: %w", a.viol.count, a.viol.first)
	}
	// Compare before the drain: rung A drains, its twins do not.
	if t := firstDivergence(timed.dec, &a.dec); t >= 0 {
		return fmt.Errorf("timed and traced run of one seed diverge at slot %d", t)
	}
	if t := firstDivergence(&a.dec, &b.dec); t >= 0 {
		return fmt.Errorf("HTTP rung and cluster rung diverge at slot %d", t)
	}
	if t := firstDivergence(&b.dec, &c.dec); w.shards == 1 && t >= 0 {
		return fmt.Errorf("1-shard cluster rung and bare engine rung diverge at slot %d", t)
	}
	if a.failed > 0 {
		return fmt.Errorf("traced run: %d failed operations, first: %s", a.failed, a.firstFailure)
	}
	return a.drainAndCheck()
}

// negativeSelf lists the self times more negative than 5% of their parent
// span: a lower rung that costs more than the rung above it means the
// twins are not measuring the same work.
func (t *tracedResult) negativeSelf() []string {
	var bad []string
	for _, s := range t.selfTimes {
		if s.self < -0.05*s.parent {
			bad = append(bad, fmt.Sprintf("%s %.1f vs parent %.1f", s.name, s.self, s.parent))
		}
	}
	return bad
}

func (t *tracedResult) print(out io.Writer) {
	fmt.Fprintf(out, "  -- per-layer (traced twin ladder, %d timed slots)\n", t.slots)
	for _, d := range perLayerMetrics {
		fmt.Fprintf(out, "  %-34s %14.4f %s\n", d.name, t.metrics[d.name], d.unit)
	}
	fmt.Fprintf(out, "  tracing overhead: median cycle traced - untraced, as measured = %+.4f ms\n", t.overheadMS)
	if bad := t.negativeSelf(); len(bad) > 0 {
		fmt.Fprintf(out, "  self-time check: NEGATIVE beyond 5%% of parent: %s\n", strings.Join(bad, "; "))
	} else {
		fmt.Fprintf(out, "  self-time check: ok (no self time below -5%% of its parent span)\n")
	}
	fmt.Fprintf(out, "  sim rung decided as the engine rung for the first %d slots\n", t.simParity)
	fmt.Fprintf(out, "  %d spans written to %s\n", t.spanCount, t.spanFile)
	if t.checkErr != nil {
		fmt.Fprintf(out, "  TRACED OUTPUT CHECK FAILED: %v\n", t.checkErr)
	} else {
		fmt.Fprintf(out, "  traced output check: ok (same decisions as the timed run; oracle.EngineChecker clean)\n")
	}
}

// writeSpans writes the in-memory spans out, once, at the end of the run.
func writeSpans(path string, w *workload, seed int64, warmup, slots int, l *spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Warmup   int    `json:"warmupSlots"`
		Slots    int    `json:"timedSlots"`
		Unit     string `json:"unit"`
		Spans    []span `json:"spans"`
	}{w.name, seed, warmup, slots, "ns since run start", l.spans})
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
