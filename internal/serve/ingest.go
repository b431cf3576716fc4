package serve

// The door: the batch path's side of the engine and the single producer
// of the SPSC ingest ring. HTTP batch handlers (and the bulk replay) hand
// decoded spec batches to SubmitBatch, which takes the door lock on the
// caller's goroutine, prices each request, gives it its id (the caller's,
// or the engine's next), inserts its row into the request table, and
// pushes it through the stage/ring pair toward the planner. The ring
// drains into the planner under the planner lock: at slot start, before a
// single-request submit, in Flush and in Drain. The overload policy is a
// strict chain of bounded queues:
//
//	pending (MaxPending)  <- ring (RingCapacity, SPSC)
//	  <- stage (StageCapacity, reward-sorted, sheds lowest E[reward])
//	    <- the door (BatchQueue waiting)  <- 503 + Retry-After
//
// Below saturation nothing ever sits in the stage, so batched intake
// appends in exact submission order — decision-for-decision identical
// to the single-POST path (the oracle differential enforces this).

import (
	"errors"
	"fmt"
	"time"

	"mecoffload/internal/workload"
)

// ErrSaturated reports that the ingest path cannot accept the batch
// right now; HTTP maps it to 503 with a jittered Retry-After.
var ErrSaturated = errors.New("serve: ingest saturated, retry later")

// defaultSpecPrice is the expected reward of a default-spec request:
// the paper-default rate support's mean rate at the midpoint unit
// reward. Kept deterministic so pricing never consumes engine
// randomness.
const defaultSpecPrice = (workload.DefaultMinRate + workload.DefaultMaxRate) / 2 *
	(workload.DefaultMinUnitReward + workload.DefaultMaxUnitReward) / 2

// BatchResult summarizes one SubmitBatch call.
type BatchResult struct {
	// IDs are the ids of the batch's specs, in submission order. An id is
	// durable for status lookups even if its request is later shed.
	IDs []uint64
	// Shed is the number of requests (from this batch or earlier ones)
	// shed by the reward-aware policy while this batch was ingested.
	Shed int
}

// SubmitBatch queues a pre-validated batch of specs for ingest under the
// engine's own numbering. It fails fast with ErrSaturated when BatchQueue
// batches already wait at the door (the overload backstop behind the
// shedding stage), and with ErrDraining / ErrStopped like Submit. Specs
// should have passed ValidateSpec; a spec the planner still rejects is
// counted and recorded as shed.
func (e *Engine) SubmitBatch(specs []RequestSpec) (BatchResult, error) {
	return e.submitBatch(nil, specs)
}

// SubmitBatchAs is SubmitBatch under ids the caller chose, one per spec
// and under SubmitAs's rule; it reports how many requests shed. Neither
// slice is kept past the call.
func (e *Engine) SubmitBatchAs(ids []uint64, specs []RequestSpec) (shed int, err error) {
	if len(ids) != len(specs) {
		return 0, fmt.Errorf("serve: %d ids for %d specs", len(ids), len(specs))
	}
	res, err := e.submitBatch(ids, specs)
	return res.Shed, err
}

// submitBatch runs the batch through the door on the caller's goroutine.
// It holds the door lock, never the planner lock, so a batch waits for
// the batches ahead of it and for a ring drain's refill, never for a slot.
func (e *Engine) submitBatch(ids []uint64, specs []RequestSpec) (BatchResult, error) {
	if len(specs) == 0 {
		return BatchResult{}, nil
	}
	if e.Draining() {
		return BatchResult{}, e.refusal()
	}
	if e.atDoor.Add(1) > int64(e.cfg.BatchQueue)+1 {
		e.atDoor.Add(-1)
		e.metrics.Saturated.Inc()
		return BatchResult{}, ErrSaturated
	}
	defer e.atDoor.Add(-1)
	e.door.Lock()
	defer e.door.Unlock()
	// A drain raises its flag before its forced ring drain takes the door,
	// so a batch that passes this check is in the ring or the stage before
	// that drain looks.
	if e.Draining() {
		return BatchResult{}, e.refusal()
	}
	ids, shed := e.pumpBatch(ids, specs)
	e.metrics.Batches.Inc()
	e.metrics.BatchRequests.Add(uint64(len(specs)))
	return BatchResult{IDs: ids, Shed: shed}, nil
}

// refusal is what closed intake answers: ErrStopped once the engine has
// exited, ErrDraining before.
func (e *Engine) refusal() error {
	if !e.Alive() {
		return ErrStopped
	}
	return ErrDraining
}

// Flush appends every batch accepted so far to the planner, in one forced
// ring drain that ignores the MaxPending backpressure bound (it exists for
// wall-clock overload, not for replay harnesses). Replay and the oracle
// differential call it before ticking, so a slot schedules exactly the
// requests submitted before it.
func (e *Engine) Flush() error {
	if err := e.lock(); err != nil {
		return err
	}
	defer e.mu.Unlock()
	e.drainRing(true)
	return nil
}

// pumpBatch registers, prices, and enqueues one batch (door lock held)
// and returns its ids and how many requests shed. The table lock is held
// for the inserts alone — a row exists before its entry can reach the
// planner — and once more if anything shed.
func (e *Engine) pumpBatch(ids []uint64, specs []RequestSpec) ([]uint64, int) {
	now := time.Now().UnixNano()
	slot := int(e.metrics.CurrentSlot.Load())
	numbered := ids != nil
	if !numbered {
		ids = make([]uint64, len(specs))
	}
	reqs := make([]*request, len(specs))
	// Rows come rowChunk at a time, not two allocations a line.
	var rows []request
	var lives []liveState
	for i, spec := range specs {
		if len(rows) == 0 {
			n := min(rowChunk, len(specs)-i)
			rows, lives = make([]request, n), make([]liveState, n)
		}
		ids[i] = e.takeID(ids[i], numbered)
		reqs[i] = initRequest(&rows[0], &lives[0], ids[i], slot, spec)
		rows, lives = rows[1:], lives[1:]
	}
	e.table.mu.Lock()
	e.table.insert(reqs...)
	e.table.mu.Unlock()

	e.shedBuf = e.shedBuf[:0]
	for i, req := range reqs {
		e.pumpPush(ingestEntry{req: req, price: specPrice(specs[i]), seq: e.pumpSeq, enqNano: now})
		e.pumpSeq++
	}
	if n := len(e.shedBuf); n > 0 {
		e.metrics.Shed.Add(uint64(n))
		e.table.mu.Lock()
		for _, victim := range e.shedBuf {
			e.table.shed(victim.req, slot)
		}
		e.table.mu.Unlock()
	}
	return ids, len(e.shedBuf)
}

// pumpPush routes one entry through the stage/ring pair and applies the
// shedding policy, appending victims to e.shedBuf (door lock held).
func (e *Engine) pumpPush(ent ingestEntry) {
	if e.stage.len() >= e.cfg.StageCapacity {
		e.pumpDrainStage()
		// Saturated fast path: an arrival at or below the stage's floor
		// price would be the next shed victim anyway (price ties break
		// newest-first, and this entry is the newest), so shed it O(1)
		// instead of churning the sorted stage with an insert + evict.
		if e.stage.len() >= e.cfg.StageCapacity && ent.price <= e.stage.entries[0].price {
			e.shedBuf = append(e.shedBuf, ent)
			return
		}
	}
	e.stage.insert(ent)
	e.pumpDrainStage()
	for e.stage.len() > e.cfg.StageCapacity {
		e.shedBuf = append(e.shedBuf, e.stage.popLowest())
	}
	e.stagedDepth.Store(int64(e.stage.len()))
}

// pumpDrainStage moves staged entries into the ring, most valuable first
// (door lock held).
func (e *Engine) pumpDrainStage() {
	pushed := 0
	for e.stage.len() > 0 {
		if !e.ring.TryPush(e.stage.entries[len(e.stage.entries)-1]) {
			break
		}
		e.stage.popHighest()
		pushed++
	}
	if pushed > 0 {
		e.stagedDepth.Store(int64(e.stage.len()))
		e.metrics.IntakeDepth.Store(int64(e.ring.Len()))
	}
}

// StagedDepth returns the door's overflow-stage depth (gauge-grade;
// exact only under the door lock).
func (e *Engine) StagedDepth() int64 { return e.stagedDepth.Load() }

// RingDepth returns the ingest ring's current depth (gauge-grade).
func (e *Engine) RingDepth() int { return e.ring.Len() }
