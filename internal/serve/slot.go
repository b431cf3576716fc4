package serve

// One scheduling slot, as the sequence of phases runSlot lists. Each phase
// below has that one call site; drainDoor (planner.go) is the one the slot
// shares with Flush and Drain. Tick runs it with the planner lock held.

import (
	"time"

	"mecoffload/internal/sim"
)

// runSlot executes one scheduling slot end to end.
func (e *Engine) runSlot() {
	// Pull whatever the door accepted before this slot, up to the pending
	// bound, so a request submitted before the tick schedules in this slot.
	e.drainDoor(false)
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

// observe hands the slot's admitted ids to the DecisionObserver, before
// settle drops the rows of requests admitted and evicted in the same slot.
func (e *Engine) observe(t int, rep sim.SlotReport) {
	if e.cfg.DecisionObserver != nil {
		admitted := e.admittedBuf[:0]
		for _, j := range rep.Admitted {
			admitted = append(admitted, e.table.byIdx[j].row.id)
		}
		e.admittedBuf = admitted
		e.cfg.DecisionObserver(t, admitted, rep.Reward)
	}
}

// settle folds the report into the request table and the counters, under
// one acquisition of the table lock — and none on an idle slot (no
// departures, expiries or admissions), which also stays allocation-free.
func (e *Engine) settle(t int, rep sim.SlotReport) {
	gone := len(rep.Departed) + len(rep.Expired)
	if gone+len(rep.Admitted) == 0 {
		return
	}
	served := 0
	e.table.mu.Lock()
	for _, j := range rep.Departed {
		e.table.finish(j, rowCompleted, t)
	}
	for _, j := range rep.Expired {
		e.table.finish(j, rowExpired, t)
	}
	for _, j := range rep.Admitted {
		if d := e.res.Decisions[j]; d.Served {
			e.table.serving(j, t, d.Station, d.Reward, d.LatencyMS)
			served++
		} else {
			e.table.finish(j, rowEvicted, t).station = int32(d.Station)
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
	m.Evicted.Add(uint64(evicted))
}

// publish updates the per-slot gauges and writes the trace line.
func (e *Engine) publish(t, depth int, rep sim.SlotReport, durMS float64) {
	m := e.metrics
	m.Reward.Add(rep.Reward)
	m.SlotDuration.Observe(durMS)
	m.Ticks.Inc()
	m.PendingDepth.Store(int64(len(e.pending)))
	m.ActiveStreams.Store(int64(e.planner.NumRunning()))

	if e.cfg.TraceWriter != nil {
		sim.WriteTraceLine(e.cfg.TraceWriter, t, depth, len(rep.Admitted), e.planner.Used(), e.cfg.Net.TotalCapacity(), e.sched)
	}
}

// advance moves the slot clock.
func (e *Engine) advance() {
	e.slot++
	e.metrics.CurrentSlot.Store(int64(e.slot))
}
