package serve

// What the planner lock guards between slots: the door's drain and the one
// admission it makes per request. Every function here runs with e.mu
// held; a tick hands over to runSlot (slot.go).

import (
	"time"

	"mecoffload/internal/core"
	"mecoffload/internal/mec"
	"mecoffload/internal/sim"
)

// ingestOne appends one request taken from the door to the planner: the
// planner's one way in. Its row already exists (the door inserted it), and
// paper-default outcomes drawn for it are written into its live part's
// spec; the planner files its key (specKey) and builds the request only
// when R_t first selects it (build). admitTaken then records it as
// pending, or a refusal as shed so the id stays resolvable. When the append would grow the
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
	k, err := specKey(e.cfg.Net, e.cfg.Rng, e.slot, &ent.live.spec)
	if err == nil {
		err = e.planner.AppendKey(k)
	}
	if err != nil {
		e.metrics.Rejected.Inc()
		return false
	}
	e.res.Decisions = append(e.res.Decisions, core.Decision{RequestID: idx, Station: -1})
	e.pending = append(e.pending, idx)
	e.metrics.Submitted.Inc()
	e.table.attach(ent.live, e.slot)
	return true
}

// reqChunk is how many planner requests share one allocation: 17 of 104
// bytes fill 1 768 of the 1 792-byte size class. A request R_t selected
// pins its chunk until compaction drops it, so a chunk is a few slots of
// arrivals (as dist.Arena's are), not a hundred requests.
const reqChunk = 17

// build makes the planner request at index idx when R_t first selects it
// (the planner's sim.Builder), from the spec its live part holds, which
// specKey checked at the door. The request and its distribution are
// carved from chunks, as the door carves rows.
func (e *Engine) build(idx int, k sim.Key) *mec.Request {
	if e.onBuild != nil {
		e.onBuild(idx)
	}
	if len(e.reqChunk) == 0 {
		e.reqChunk = make([]mec.Request, reqChunk)
	}
	r := &e.reqChunk[0]
	e.reqChunk = e.reqChunk[1:]
	return buildSpec(r, &e.arena, k, &e.table.byIdx[idx].spec)
}

// admitTaken admits one take's entries in order, records their rows under
// one acquisition of the table lock — pending where the planner took the
// request, shed where it refused it — and observes the intake latency of
// those the planner took: the clock is read once per take, and the
// histogram observed once per run of entries that share an enqueue time
// (one batch), with the run's count.
func (e *Engine) admitTaken(taken []ingestEntry) {
	if len(taken) == 0 {
		return
	}
	now := time.Now().UnixNano()
	var enq int64
	run, admitted := uint64(0), 0
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
			admitted++
		}
	}
	observe()
	e.table.mu.Lock()
	e.table.admit(admitted)
	if admitted < len(taken) {
		for _, ent := range taken {
			e.table.shed(ent.live, e.slot) // a row still at the door was refused
		}
	}
	e.table.mu.Unlock()
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
