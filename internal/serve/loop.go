package serve

// The control loop, the one goroutine that owns the planner, and what it
// does between slots; a tick hands over to runSlot (slot.go).

import (
	"sort"
	"time"

	"mecoffload/internal/core"
	"mecoffload/internal/sim"
)

// loop is the engine's single-writer core: it owns the planner, the
// pending queue, and the loop side of the request table, and it is the
// only goroutine that advances the scheduler and its bandit.
func (e *Engine) loop() {
	defer close(e.loopDone)
	for {
		select {
		case msg := <-e.intake:
			msg.reply <- e.handleIntake(msg)
		case <-e.ringC:
			e.drainRing(false)
		case msg := <-e.snapC:
			ck, err := e.snapshotState()
			msg.reply <- snapReply{ck: ck, err: err}
		case msg := <-e.extractC:
			msg.reply <- e.handleExtract(msg.id)
		case msg := <-e.control:
			switch msg.kind {
			case ctlTick, ctlTickFeedback:
				if msg.kind == ctlTickFeedback {
					e.feedback(msg.slot, msg.reward)
				}
				e.runSlot()
				msg.reply <- nil
				if e.drainComplete() {
					return
				}
			case ctlFlushRing:
				e.drainRing(true)
				msg.reply <- nil
			case ctlFeedback:
				e.feedback(msg.slot, msg.reward)
				msg.reply <- nil
			case ctlDrain:
				// Quiesce the ingest path before raising the drain flag:
				// requests already accepted into the stage or ring become
				// pending (and thus drain to a decision) instead of being
				// rejected behind the submitter's back.
				e.quiesceIngest()
				e.drain = true
				e.metrics.drainFlag.Store(true)
				msg.reply <- nil
				if e.drainComplete() {
					return
				}
			case ctlStop:
				msg.reply <- nil
				return
			}
		}
	}
}

// feedback hands the scheduler a slot's externally aggregated reward.
func (e *Engine) feedback(slot int, reward float64) {
	if fb, ok := e.sched.(sim.FeedbackScheduler); ok {
		fb.Feedback(slot, reward)
	}
}

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

// handleIntake admits one single-POST request. An id of the engine's own
// is allocated only once the planner took the request, so a refused spec
// consumes none.
func (e *Engine) handleIntake(msg intakeMsg) intakeReply {
	idx, err := e.admit(&msg.spec)
	if err != nil {
		e.metrics.Rejected.Inc()
		return intakeReply{err: err}
	}
	id := e.takeID(msg.id, msg.numbered)
	req := newRequest(id, e.slot, msg.spec)
	e.table.mu.Lock()
	e.table.insert(req)
	req = e.table.rows[id] // its earlier row, revived, when the id is back from an Extract
	e.table.mu.Unlock()
	e.table.attach(req, idx, e.slot)
	e.metrics.PendingDepth.Store(int64(len(e.pending)))
	return intakeReply{id: id, slot: e.slot}
}

// ingestOne admits one batch-path request off the ring. Its row already
// exists (the pump inserted it); a refusal surfaces as a shed record so
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

// drainRing consumes ring entries into the planner. Unless forced, it
// respects the MaxPending bound — the backpressure signal that lets the
// ring fill, the stage engage, and the shedding policy take over when the
// scheduler cannot keep up.
func (e *Engine) drainRing(force bool) {
	consumed := 0
	for force || len(e.pending) < e.cfg.MaxPending {
		ent, ok := e.ring.TryPop()
		if !ok {
			break
		}
		consumed++
		e.ingestOne(ent)
	}
	if consumed > 0 {
		e.metrics.IntakeDepth.Store(int64(e.ring.Len()))
		e.metrics.PendingDepth.Store(int64(len(e.pending)))
		select {
		case e.spaceC <- struct{}{}:
		default:
		}
	}
}

// quiesceIngest closes the batched-ingest path and hands its residue to
// the planner: the pump stops accepting batches and surrenders its
// overflow stage, the loop force-drains the ring, and every surrendered
// entry is appended as pending in submission order. A drain (and any
// Snapshot taken after it) then sees every accepted request instead of
// dropping the stage and ring residue on the floor. Idempotent: a second
// call finds an already-stopped pump with an empty stage.
func (e *Engine) quiesceIngest() {
	e.metrics.drainFlag.Store(true)
	var staged []ingestEntry
	msg := batchMsg{collect: true, reply: batchReplyChan()}
	select {
	case e.batchC <- msg:
		select {
		case rep := <-msg.reply:
			staged = rep.staged
			putBatchReplyChan(msg.reply)
		case <-e.pumpDone:
		}
	case <-e.pumpDone:
	}
	// The residue must land even if a drain flag is already up: these
	// requests were accepted before intake closed.
	wasDrain := e.drain
	e.drain = false
	e.drainRing(true)
	sort.Slice(staged, func(a, b int) bool { return staged[a].seq < staged[b].seq })
	for _, ent := range staged {
		e.ingestOne(ent)
	}
	e.drain = wasDrain
	e.stagedDepth.Store(0)
	e.metrics.IntakeDepth.Store(int64(e.ring.Len()))
	e.metrics.PendingDepth.Store(int64(len(e.pending)))
}

// handleExtract removes one pending request from the planner for
// cross-shard migration. Only a request the planner holds undecided is
// extractable: one still in the ring is not the planner's to give, and
// once a request scheduled its service instance is pinned to this
// engine's stations. The record becomes migrated (terminal here; the
// target shard owns the request from now on).
func (e *Engine) handleExtract(id uint64) extractReply {
	e.table.mu.Lock()
	defer e.table.mu.Unlock()
	req := e.table.rows[id]
	if req == nil || req.rec.State != StatePending || req.live.idx < 0 {
		return extractReply{err: ErrNotPending}
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
	return extractReply{spec: live.spec, arrival: live.arrival}
}

// drainComplete reports true once a draining engine has no work left,
// and on that transition records the final state for Snapshot: the loop
// exits right after, and what it learned must outlive it. Feedback still
// deferred for the exit slot (Config.DeferFeedback) is not in it; that
// matters only when the slot pulled an arm and left nothing running.
func (e *Engine) drainComplete() bool {
	if !e.drain || len(e.pending) != 0 || e.planner.NumRunning() != 0 {
		return false
	}
	ck, err := e.snapshotState()
	if err != nil {
		e.cfg.Logf("arserved: final snapshot of the drained engine failed: %v", err)
	}
	e.drainedSnap = ck
	return true
}
