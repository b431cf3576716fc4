package main

import (
	"fmt"
	"runtime"
	"time"

	"mecoffload/internal/stats"
)

// setupRounds is how many times an untraced run sets the system up;
// setup_s is the median, which a single noisy process start cannot move.
const setupRounds = 3

// timedResult is everything one untraced run measured.
type timedResult struct {
	w             *workload
	seed          int64
	warmup, slots int

	// metrics holds the end-to-end metrics by name, times speed-corrected.
	metrics map[string]float64
	// timed holds what the per-layer report prints of this run: the
	// uncorrected slot and cycle times, the speed factor, and the process
	// metrics.
	timed map[string]float64

	attempted, failed int
	firstFailure      string
	// checkErr is the output check's verdict; nil means correct.
	checkErr error
	dec      *decisions
}

// liveHeap is the bytes of reachable heap objects: HeapAlloc right after
// two collections, the second of which empties the sync.Pool victim
// caches the first one filled. Unlike HeapInuse it carries no
// span-fragmentation noise, so a deterministic workload reads the same
// from process to process.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// setup builds one ready-to-time system: topology, the whole arrival
// trace, the cluster behind its server, and the warm-up cycles. heapBase
// is the live heap once the benchmark's own inputs exist and before the
// cluster does, so heap_mb_end can charge the cluster alone.
func setup(w *workload, seed int64, warmup, slots int, scratch string, cal *calibrator) (r *httpRung, heapBase uint64, err error) {
	net, err := w.network()
	if err != nil {
		return nil, 0, err
	}
	total := warmup + slots
	tr, err := generateTrace(w, net, seed, total)
	if err != nil {
		return nil, 0, err
	}
	// The sample arrays are sized before the baseline so they are not
	// charged to the cluster either.
	slotMS, cycleMS, postMS := make([]float64, 0, total), make([]float64, 0, total), make([]float64, 0, total)
	statusUS := make([]float64, 0, statusSample*total)
	heapBase = liveHeap()
	if r, err = newHTTPRung(w, net, tr, seed, scratch, nil); err != nil {
		return nil, 0, err
	}
	r.slotMS, r.cycleMS, r.postMS, r.statusUS = slotMS, cycleMS, postMS, statusUS
	for t := 0; t < warmup; t++ {
		if err := r.cycle(t); err != nil {
			r.close()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
		cal.tick()
	}
	r.resetSamples()
	return r, heapBase, nil
}

// runTimed measures one workload with tracing off, after setting it up
// `rounds` times (every round but the last is torn down again).
func runTimed(w *workload, seed int64, warmup, slots, rounds int, scratch string) (*timedResult, error) {
	var (
		r        *httpRung
		heapBase uint64
		setups   []float64
		cal      = new(calibrator)
	)
	for round := 0; round < rounds; round++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		var err error
		if r, heapBase, err = setup(w, seed, warmup, slots, scratch, cal); err != nil {
			return nil, err
		}
		raw := time.Since(t0) - cal.spent
		cal.spent = 0
		div, _ := cal.correction()
		setups = append(setups, raw.Seconds()/div)
	}
	defer r.close()

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for t := warmup; t < warmup+slots; t++ {
		if err := r.cycle(t); err != nil {
			return nil, err
		}
		cal.tick()
	}
	wall := (time.Since(start) - cal.spent).Seconds()
	div, factor := cal.correction()
	runtime.ReadMemStats(&m1)
	end, err := readTotals(r.cl)
	if err != nil {
		return nil, err
	}
	// An async checkpoint extracted by the last tick may still be encoding;
	// let it land so its buffers are not counted on some runs only.
	r.cl.WaitCheckpoints()
	heapEnd := liveHeap()

	submitted, admitted := 0.0, 0.0
	for t := warmup; t < warmup+slots; t++ {
		submitted += float64(r.tr.counts[t])
		admitted += float64(r.dec.admitted[t])
	}
	// A copy: a pointer into the rung would keep its whole cluster alive.
	dec := r.dec
	res := &timedResult{w: w, seed: seed, warmup: warmup, slots: slots, dec: &dec}
	res.metrics = map[string]float64{
		"setup_s":          median(setups),
		"slot_ms_p50":      median(r.slotMS) / div,
		"cycle_ms_p50":     median(r.cycleMS) / div,
		"cycle_ms_p90":     stats.Percentile(r.cycleMS, 90) / div,
		"post_ms_p50":      median(r.postMS) / div,
		"decided_per_s":    (submitted - end.pending - end.intake) / (wall / div),
		"reward_per_slot":  stats.Sum(r.dec.rewards[warmup:warmup+slots]) / float64(slots),
		"accept_ratio":     ratio(admitted, submitted),
		"alloc_kb_per_req": ratio(float64(m1.TotalAlloc-m0.TotalAlloc)/1024, submitted),
		"heap_mb_end":      (float64(heapEnd) - float64(heapBase)) / (1 << 20),
	}
	// PauseNs is a ring of the latest 256 cycles; the k-th cycle's pause
	// sits at (k+255)%256.
	pauseMax := uint64(0)
	for k := m1.NumGC; k > m0.NumGC && k+256 > m1.NumGC; k-- {
		if p := m1.PauseNs[(k+255)%256]; p > pauseMax {
			pauseMax = p
		}
	}
	res.timed = map[string]float64{
		"timed.speed_factor":      factor,
		"timed.slot_ms_p50":       median(r.slotMS),
		"timed.slot_ms_p90":       stats.Percentile(r.slotMS, 90),
		"timed.slot_ms_p99":       stats.Percentile(r.slotMS, 99),
		"timed.cycle_ms_p50":      median(r.cycleMS),
		"timed.cycle_ms_p99":      stats.Percentile(r.cycleMS, 99),
		"runtime.gc_cycles":       float64(m1.NumGC - m0.NumGC),
		"runtime.gc_pause_ms_max": float64(pauseMax) / 1e6,
		"runtime.heap_mb_peak":    float64(m1.HeapSys) / (1 << 20),
		"runtime.allocs_per_req":  ratio(float64(m1.Mallocs-m0.Mallocs), submitted),
	}

	res.checkErr = r.drainAndCheck()
	res.attempted, res.failed, res.firstFailure = r.attempted, r.failed, r.firstFailure
	return res, nil
}
