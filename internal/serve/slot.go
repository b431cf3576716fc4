package serve

// One scheduling slot, as the sequence of phases runSlot lists. Each phase
// below has that one call site; drainRing (planner.go) is the one the slot
// shares with single-request submits, Flush and Drain. Tick runs it
// with the planner lock held.

import (
	"fmt"
	"time"

	"mecoffload/internal/sim"
)

// runSlot executes one scheduling slot end to end.
func (e *Engine) runSlot() {
	// Pull whatever the batch path delivered before this slot, up to the
	// pending bound, so a batch submitted before the tick schedules in
	// this slot exactly like single-POST arrivals would.
	e.drainRing(false)
	t, depth := e.slot, len(e.pending)
	rep, durMS := e.step(t)
	e.observe(t, rep)
	e.settle(t, rep)
	e.publish(t, depth, rep, durMS)
	e.advance()
}

// step runs the planner and the scheduler over the pending queue.
func (e *Engine) step(t int) (sim.SlotReport, float64) {
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
	return rep, durMS
}

// observe hands the report to the configured observers, before settle
// drops the rows of requests admitted and evicted in the same slot.
func (e *Engine) observe(t int, rep sim.SlotReport) {
	if e.cfg.SlotObserver != nil {
		e.cfg.SlotObserver(rep)
	}
	if e.cfg.DecisionObserver != nil {
		admitted := e.admittedBuf[:0]
		for _, j := range rep.Admitted {
			admitted = append(admitted, e.table.byIdx[j].rec.ID)
		}
		e.admittedBuf = admitted
		e.cfg.DecisionObserver(t, admitted, rep.Reward)
	}
}

// settle folds the report into the request table and the counters, under
// one acquisition of the table lock — and none on an idle slot (no
// arrivals, departures, admissions or handovers), which also stays
// allocation-free.
func (e *Engine) settle(t int, rep sim.SlotReport) {
	gone := len(rep.Departed) + len(rep.Expired) + len(rep.OutageEvicted)
	if gone+len(rep.Admitted)+len(rep.HandedOver) == 0 {
		return
	}
	served := 0
	e.table.mu.Lock()
	// A handover re-pointed these pending requests; their rows, still live
	// before the finishes below, record the station the user moved to, so a
	// checkpoint or an Extract hands on where the request is now.
	for _, j := range rep.HandedOver {
		e.table.byIdx[j].live.spec.AccessStation = e.planner.Requests()[j].AccessStation
	}
	for _, j := range rep.Departed {
		e.table.finish(j, StateCompleted, t)
	}
	for _, j := range rep.Expired {
		e.table.finish(j, StateExpired, t)
	}
	// An outage destroys running streams mid-hold; the record keeps the
	// station it was serving on.
	for _, j := range rep.OutageEvicted {
		e.table.finish(j, StateEvicted, t)
	}
	for _, j := range rep.Admitted {
		if d := e.res.Decisions[j]; d.Served {
			e.table.serving(j, t, d.Station, d.Reward, d.LatencyMS)
			served++
		} else {
			e.table.finish(j, StateEvicted, t).Station = d.Station
		}
	}
	// Occupancy only moves when streams start or end.
	if len(rep.Departed) > 0 || len(rep.Admitted) > 0 {
		for i, u := range e.planner.Used() {
			e.table.stations[i].UsedMHz = u
		}
	}
	e.table.mu.Unlock()

	evicted := len(rep.Admitted) - served
	e.settled += gone + evicted
	m := e.metrics
	m.Departed.Add(uint64(len(rep.Departed)))
	m.Expired.Add(uint64(len(rep.Expired)))
	m.Admitted.Add(uint64(len(rep.Admitted)))
	m.Served.Add(uint64(served))
	m.Evicted.Add(uint64(len(rep.OutageEvicted) + evicted))
}

// publish updates the per-slot gauges and writes the trace line.
func (e *Engine) publish(t, depth int, rep sim.SlotReport, durMS float64) {
	m := e.metrics
	m.Reward.Add(rep.Reward)
	m.SlotDuration.Observe(durMS)
	m.Ticks.Inc()
	m.PendingDepth.Store(int64(len(e.pending)))
	m.ActiveStreams.Store(int64(e.planner.NumRunning()))

	// Per-slot trace line, format-compatible with arsim -trace.
	if e.cfg.TraceWriter != nil {
		sumUsed := 0.0
		for _, u := range e.planner.Used() {
			sumUsed += u
		}
		line := fmt.Sprintf("slot %4d  pending %3d  admitted %3d  utilization %5.1f%%",
			t, depth, len(rep.Admitted), 100*sumUsed/e.cfg.Net.TotalCapacity())
		if d, ok := e.sched.(*sim.DynamicRR); ok && d.Bandit() != nil {
			if best, ok := d.Bandit().Policy().(interface{ BestArm() int }); ok {
				line += fmt.Sprintf("  threshold %4.0f MHz", d.Bandit().Value(best.BestArm()))
			}
		}
		fmt.Fprintln(e.cfg.TraceWriter, line)
	}
}

// advance moves the slot clock and compacts the planner once its settled
// backlog has grown past the bound.
func (e *Engine) advance() {
	e.slot++
	e.metrics.CurrentSlot.Store(int64(e.slot))
	if e.settled > e.cfg.CompactAfter {
		if err := e.compact(); err != nil {
			e.cfg.Logf("arserved: compaction failed (continuing uncompacted): %v", err)
		}
	}
}
