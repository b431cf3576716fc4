package serve

// What the planner lock guards between slots: the door's drain, the one
// admission it makes per request, and the exit a drain ends in. Every
// function here runs with e.mu held; a tick hands over to runSlot
// (slot.go).

import (
	"time"

	"mecoffload/internal/core"
)

// ingestOne appends one request taken from the door to the planner as
// pending: the planner's one way in. Its row already exists (the door
// inserted it), and paper-default outcomes drawn for it are written into
// the row's spec (see materializeSpec); a refusal surfaces as a shed
// record so the id stays resolvable. When the append would grow the
// planner's arrays and at least half their entries (and more than
// Config.CompactAfter) are settled, the planner is compacted first: the
// arrays stay near twice the live set instead of growing with the backlog.
// It reports whether the planner took the request.
func (e *Engine) ingestOne(ent ingestEntry) bool {
	if n := len(e.res.Decisions); n == cap(e.res.Decisions) && 2*e.settled >= n && e.settled > e.cfg.CompactAfter {
		if err := e.compact(); err != nil {
			e.cfg.Logf("arserved: compaction failed (continuing uncompacted): %v", err)
		}
	}
	idx := len(e.planner.Requests())
	r, err := materializeSpec(e.cfg.Net, e.cfg.Rng, idx, e.slot, &ent.req.live.spec)
	if err == nil {
		err = e.planner.Append(r)
	}
	if err != nil {
		e.metrics.Rejected.Inc()
		e.table.mu.Lock()
		e.table.shed(ent.req, e.slot)
		e.table.mu.Unlock()
		return false
	}
	e.res.Decisions = append(e.res.Decisions, core.Decision{RequestID: idx, Station: -1})
	e.pending = append(e.pending, idx)
	e.metrics.Submitted.Inc()
	e.table.attach(ent.req, idx, e.slot)
	return true
}

// admitTaken admits one take's entries in order and observes the intake
// latency of those the planner took: the clock is read once per take, and
// the histogram observed once per run of entries that share an enqueue
// time (one batch), with the run's count.
func (e *Engine) admitTaken(taken []ingestEntry) {
	if len(taken) == 0 {
		return
	}
	now := time.Now().UnixNano()
	var enq int64
	run := uint64(0)
	observe := func() {
		if run > 0 {
			e.metrics.IntakeLatency.ObserveN(float64(now-enq)/1e6, run)
		}
	}
	for _, ent := range taken {
		if ent.enqNano != enq {
			observe()
			enq, run = ent.enqNano, 0
		}
		if e.ingestOne(ent) {
			run++
		}
	}
	observe()
}

// drainDoor admits the door's entries into the planner, oldest first.
// Unless forced, it stops at the MaxPending bound — the backpressure
// signal that lets the door fill and its shedding rule take over when the
// scheduler cannot keep up. The door lock is held only to take entries,
// never while they are admitted; every batch that left the door before the
// call is seen, as the take waits for the one inside it.
func (e *Engine) drainDoor(force bool) {
	consumed := 0
	for force || len(e.pending) < e.cfg.MaxPending {
		limit := -1
		if !force {
			limit = e.cfg.MaxPending - len(e.pending)
		}
		e.door.Lock()
		taken := e.intake.take(limit, e.taken)
		e.metrics.IntakeDepth.Store(int64(len(e.intake.entries)))
		e.door.Unlock()
		e.admitTaken(taken)
		consumed += len(taken)
		clear(taken)
		e.taken = taken[:0]
		// A forced take held everything; an empty one leaves nothing. A
		// bounded take admitted up to the bound unless the planner refused
		// some, whose places the next pass fills.
		if force || len(taken) == 0 {
			break
		}
	}
	if consumed > 0 {
		e.metrics.PendingDepth.Store(int64(len(e.pending)))
	}
}

// exitIfDrained exits a draining engine that has no work left, recording
// its final state first: Snapshot answers with it from then on. Feedback
// still deferred for the exit slot (Config.DeferFeedback) is not in it;
// that matters only when the slot pulled an arm and left nothing running.
func (e *Engine) exitIfDrained() {
	if !e.drain || len(e.pending) != 0 || e.planner.NumRunning() != 0 {
		return
	}
	ck, err := e.snapshotState()
	if err != nil {
		e.cfg.Logf("arserved: final snapshot of the drained engine failed: %v", err)
	}
	e.drainedSnap = ck
	close(e.done)
}
