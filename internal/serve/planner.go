package serve

// What the planner lock guards between slots: admit, the ring drain,
// extract, and the exit a drain ends in. Every function here runs with
// e.mu held; a tick hands over to runSlot (slot.go).

import (
	"time"

	"mecoffload/internal/core"
)

// admit appends one request to the planner as pending and returns its
// planner index: the one way in, for single POSTs and ring entries alike.
// Paper-default outcomes drawn for it are written into spec (see
// materializeSpec), which the caller's row keeps.
func (e *Engine) admit(spec *RequestSpec) (int, error) {
	if e.drain {
		return 0, ErrDraining
	}
	idx := len(e.planner.Requests())
	r, err := materializeSpec(e.cfg.Net, e.cfg.Rng, idx, e.slot, spec)
	if err != nil {
		return 0, err
	}
	if err := e.planner.Append(r); err != nil {
		return 0, err
	}
	e.res.Decisions = append(e.res.Decisions, core.Decision{RequestID: idx, Station: -1})
	e.pending = append(e.pending, idx)
	e.metrics.Submitted.Inc()
	return idx, nil
}

// ingestOne admits one batch-path request off the ring. Its row already
// exists (the door inserted it); a refusal surfaces as a shed record so
// the id stays resolvable.
func (e *Engine) ingestOne(ent ingestEntry) {
	idx, err := e.admit(&ent.req.live.spec)
	if err != nil {
		e.metrics.Rejected.Inc()
		e.table.mu.Lock()
		e.table.shed(ent.req, e.slot)
		e.table.mu.Unlock()
		return
	}
	e.table.attach(ent.req, idx, e.slot)
	e.metrics.IntakeLatency.Observe(float64(time.Now().UnixNano()-ent.enqNano) / 1e6)
}

// drainRing consumes ring entries into the planner and refills the ring
// from the stage, most valuable first, under the door lock, until both are
// empty. Unless forced, it stops at the MaxPending bound — the
// backpressure signal that lets the ring fill, the stage engage, and the
// shedding policy take over when the scheduler cannot keep up. Every batch
// that left the door before the call is seen: the refill waits for the one
// inside it.
func (e *Engine) drainRing(force bool) {
	consumed := 0
	for {
		for force || len(e.pending) < e.cfg.MaxPending {
			ent, ok := e.ring.TryPop()
			if !ok {
				break
			}
			consumed++
			e.ingestOne(ent)
		}
		e.door.Lock()
		e.pumpDrainStage()
		e.door.Unlock()
		if e.ring.Len() == 0 || (!force && len(e.pending) >= e.cfg.MaxPending) {
			break
		}
	}
	if consumed > 0 {
		e.metrics.IntakeDepth.Store(int64(e.ring.Len()))
		e.metrics.PendingDepth.Store(int64(len(e.pending)))
	}
}

// extract removes one pending request from the planner for cross-shard
// migration. Only a request the planner holds undecided is extractable:
// one still in the ring is not the planner's to give, and once a request
// scheduled its service instance is pinned to this engine's stations. The
// record becomes migrated (terminal here; the target shard owns the
// request from now on).
func (e *Engine) extract(id uint64) (RequestSpec, int, error) {
	e.table.mu.Lock()
	defer e.table.mu.Unlock()
	req := e.table.rows[id]
	if req == nil || req.rec.State != StatePending || req.live.idx < 0 {
		return RequestSpec{}, 0, ErrNotPending
	}
	live := req.live
	for k, j := range e.pending {
		if j == live.idx {
			e.pending = append(e.pending[:k], e.pending[k+1:]...)
			break
		}
	}
	e.table.finish(live.idx, StateMigrated, e.slot)
	e.settled++
	e.metrics.PendingDepth.Store(int64(len(e.pending)))
	return live.spec, live.arrival, nil
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
