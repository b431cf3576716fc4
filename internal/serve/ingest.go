package serve

// The intake pump: the single producer of the SPSC ingest ring. HTTP
// batch handlers (and the bulk replay) hand decoded
// spec batches to SubmitBatch, which enqueues them on a small bounded
// channel; the pump goroutine prices each request, gives it its id (the
// caller's, or the engine's next), inserts its row into the request table,
// and pushes it through the stage/ring pair toward the engine loop. The
// overload policy is a strict chain of bounded queues:
//
//	pending (MaxPending, loop)  <- ring (RingCapacity, SPSC)
//	  <- stage (StageCapacity, reward-sorted, sheds lowest E[reward])
//	    <- batch channel (BatchQueue)  <- 503 + Retry-After
//
// Below saturation nothing ever sits in the stage, so batched intake
// appends in exact submission order — decision-for-decision identical
// to the single-POST path (the oracle differential enforces this).

import (
	"errors"
	"fmt"
	"sync"
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

type batchMsg struct {
	specs []RequestSpec
	// ids are the caller's ids for specs, one each; nil asks the pump to
	// number the batch itself.
	ids     []uint64
	barrier bool
	// collect asks the pump to stop accepting batches and surrender its
	// overflow stage — the shutdown quiesce (see Engine.quiesceIngest).
	collect bool
	reply   chan batchReply
}

type batchReply struct {
	ids  []uint64
	shed int
	// staged is the surrendered overflow stage (collect replies only).
	staged []ingestEntry
	// rejected marks a batch that arrived after the pump stopped; the
	// caller maps it to ErrDraining/ErrStopped.
	rejected bool
}

// SubmitBatch queues a pre-validated batch of specs for ingest under the
// engine's own numbering. It fails fast with ErrSaturated when the pump's
// inbox is full (the overload backstop behind the shedding stage), and
// with ErrDraining / ErrStopped like Submit. Specs should have passed
// ValidateSpec; a spec the loop still rejects is counted and recorded as
// shed.
func (e *Engine) SubmitBatch(specs []RequestSpec) (BatchResult, error) {
	return e.submitBatch(batchMsg{specs: specs})
}

// SubmitBatchAs is SubmitBatch under ids the caller chose, one per spec
// and under SubmitAs's rule; it reports how many requests shed. Neither
// slice is kept past the call.
func (e *Engine) SubmitBatchAs(ids []uint64, specs []RequestSpec) (shed int, err error) {
	if len(ids) != len(specs) {
		return 0, fmt.Errorf("serve: %d ids for %d specs", len(ids), len(specs))
	}
	res, err := e.submitBatch(batchMsg{specs: specs, ids: ids})
	return res.Shed, err
}

func (e *Engine) submitBatch(msg batchMsg) (BatchResult, error) {
	if len(msg.specs) == 0 {
		return BatchResult{}, nil
	}
	if e.Draining() {
		if !e.Alive() {
			return BatchResult{}, ErrStopped
		}
		return BatchResult{}, ErrDraining
	}
	msg.reply = batchReplyChan()
	select {
	case e.batchC <- msg:
	default:
		e.metrics.Saturated.Inc()
		return BatchResult{}, ErrSaturated
	}
	select {
	case rep := <-msg.reply:
		putBatchReplyChan(msg.reply)
		if rep.rejected {
			// The pump stopped between our Draining check and the send.
			if !e.Alive() {
				return BatchResult{}, ErrStopped
			}
			return BatchResult{}, ErrDraining
		}
		e.metrics.Batches.Inc()
		e.metrics.BatchRequests.Add(uint64(len(msg.specs)))
		return BatchResult{IDs: rep.ids, Shed: rep.shed}, nil
	case <-e.loopDone:
		return BatchResult{}, ErrStopped
	}
}

// Flush blocks until every batch accepted so far has been appended to
// the planner: the pump's inbox is empty, the stage has drained, and
// the loop has consumed the ring (ignoring the MaxPending backpressure
// bound, which exists for wall-clock overload, not for replay
// harnesses). Replay and the oracle differential call it before
// ticking, so a slot schedules exactly the requests submitted before
// it.
func (e *Engine) Flush() error {
	for i := 0; ; i++ {
		if err := e.pumpBarrier(); err != nil {
			return err
		}
		if err := e.sendControl(controlMsg{kind: ctlFlushRing}); err != nil {
			return err
		}
		if e.ring.Len() == 0 && e.stagedDepth.Load() == 0 {
			return nil
		}
		if i > 1<<20 {
			return errors.New("serve: flush did not converge")
		}
	}
}

// pumpBarrier round-trips the pump goroutine, guaranteeing every batch
// enqueued before the call has been processed.
func (e *Engine) pumpBarrier() error {
	reply := batchReplyChan()
	if _, ok := ask(e, e.batchC, batchMsg{barrier: true, reply: reply}, reply); !ok {
		return ErrStopped
	}
	putBatchReplyChan(reply)
	return nil
}

// Reply channels for batch calls are pooled like the intake/control
// ones; a channel abandoned on loop exit is dropped for the GC.
var batchReplyPool = sync.Pool{New: func() any { return make(chan batchReply, 1) }}

func batchReplyChan() chan batchReply     { return batchReplyPool.Get().(chan batchReply) }
func putBatchReplyChan(c chan batchReply) { batchReplyPool.Put(c) }

// pump is the intake pump goroutine: the single producer of the ingest
// ring. It exits when the engine loop does. After a collect message
// (shutdown quiesce) it keeps answering barriers but rejects new batches
// and stops touching the stage/ring — the loop owns the residue from
// that point on.
func (e *Engine) pump() {
	defer close(e.pumpDone)
	stopped := false
	for {
		select {
		case msg := <-e.batchC:
			switch {
			case msg.barrier:
				msg.reply <- batchReply{}
			case msg.collect:
				staged := make([]ingestEntry, 0, e.stage.len())
				for e.stage.len() > 0 {
					staged = append(staged, e.stage.popLowest())
				}
				stopped = true
				msg.reply <- batchReply{staged: staged}
			case stopped:
				msg.reply <- batchReply{rejected: true}
			default:
				msg.reply <- e.pumpBatch(msg.ids, msg.specs)
			}
		case <-e.spaceC:
			// The loop freed ring space: move staged work in, most
			// valuable first.
			if !stopped {
				e.pumpDrainStage()
			}
		case <-e.loopDone:
			return
		}
	}
}

// pumpBatch registers, prices, and enqueues one batch (pump goroutine
// only). The table lock is held for the inserts alone — a row exists
// before its entry can reach the loop — and once more if anything shed.
func (e *Engine) pumpBatch(ids []uint64, specs []RequestSpec) batchReply {
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
	return batchReply{ids: ids, shed: len(e.shedBuf)}
}

// pumpPush routes one entry through the stage/ring pair and applies the
// shedding policy, appending victims to e.shedBuf (pump goroutine
// only).
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

// pumpDrainStage moves staged entries into the ring, most valuable
// first, and wakes the loop when it delivered anything.
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
		select {
		case e.ringC <- struct{}{}:
		default:
		}
	}
}

// StagedDepth returns the pump's overflow-stage depth (gauge-grade;
// exact only from the pump goroutine).
func (e *Engine) StagedDepth() int64 { return e.stagedDepth.Load() }

// RingDepth returns the ingest ring's current depth (gauge-grade).
func (e *Engine) RingDepth() int { return e.ring.Len() }
