package serve

// The door: the engine's one way in. Submit (a batch of one), HTTP batch
// handlers and the bulk replay hand decoded specs to submitBatch, which
// takes the door lock on the caller's goroutine, prices each request,
// gives it its id (the caller's, or the engine's next), inserts its row
// into the request table, and appends it to the door's one bounded
// buffer. The planner lock's holder takes the buffer's entries, oldest
// first: at slot start, in Flush and in Drain. The overload policy is a
// strict chain of bounded queues, and every request obeys it:
//
//	pending (MaxPending)  <- door (DoorCapacity, sheds lowest E[reward])
//	  <- batches waiting at the door (batchQueue)  <- 503 + Retry-After
//
// A request the door does not shed reaches the planner in exact
// submission order, so how requests are grouped into batches is
// invisible to the scheduler (the oracle differential enforces this).

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"mecoffload/internal/workload"
)

// ErrSaturated reports that the door cannot take the request right now:
// batchQueue batches already wait at it, or it shed a single request on
// arrival. HTTP maps it to 503 with a jittered Retry-After.
var ErrSaturated = errors.New("serve: ingest saturated, retry later")

// batchQueue bounds how many batches may wait at the door besides the one
// inside it; the next one fails with ErrSaturated.
const batchQueue = 8

// defaultSpecPrice is the expected reward of a default-spec request:
// the paper-default rate support's mean rate at the midpoint unit
// reward. Kept deterministic so pricing never consumes engine
// randomness.
const defaultSpecPrice = (workload.DefaultMinRate + workload.DefaultMaxRate) / 2 *
	(workload.DefaultMinUnitReward + workload.DefaultMaxUnitReward) / 2

// BatchResult summarizes one batch's pass through the door.
type BatchResult struct {
	// IDs are the ids of the batch's specs, in submission order. An id is
	// durable for status lookups even if its request is later shed.
	IDs []uint64
	// Shed is the number of requests (from this batch or earlier ones)
	// shed by the reward-aware policy while this batch was ingested, and
	// Lost the number of this batch's own among them.
	Shed, Lost int
	// Slot is the slot the batch arrived in: its rows' SubmittedSlot.
	Slot int
	// Refused lists the specs of a cluster batch that took no id, by
	// position in the batch, ascending: those the router's check refused
	// (ValidateSpec's error) and those a shard refused (it was saturated or
	// draining) while another spec was accepted. An engine refuses a batch
	// whole, with an error, and leaves it empty.
	Refused []Refusal
}

// Refusal is one spec of a batch that was refused, and why.
type Refusal struct {
	Index int
	Err   error
}

// Single answers a single-request caller from its batch of one: the
// request's id and arrival slot, the refusal of a spec the batch listed in
// Refused, or ErrSaturated when the door shed it on arrival.
func Single(res BatchResult, err error) (uint64, int, error) {
	switch {
	case err != nil:
	case len(res.Refused) > 0:
		err = res.Refused[0].Err
	case res.Lost > 0:
		err = ErrSaturated
	}
	if err != nil {
		return 0, 0, err
	}
	return res.IDs[0], res.Slot, nil
}

// Submit queues one request under the engine's own numbering and returns
// its id and the slot it arrived in. It is a batch of one through the
// door: a spec ValidateSpec refuses fails with ErrBadSpec, counts as
// rejected and takes no id, and the request fails with ErrSaturated when
// the door is saturated or sheds it on arrival.
func (e *Engine) Submit(spec RequestSpec) (uint64, int, error) {
	if err := e.ValidateSpec(spec); err != nil {
		e.metrics.Rejected.Inc()
		return 0, 0, err
	}
	var id [1]uint64
	return Single(e.submitBatch(id[:0], []RequestSpec{spec}))
}

// SubmitBatch queues a batch of specs for ingest under the engine's own
// numbering. It fails fast with ErrSaturated when batchQueue batches
// already wait at the door (the overload backstop behind the door's
// shedding), and with ErrDraining / ErrStopped once intake has closed. It
// does not check the specs: that is the caller's one pass (the cluster's
// router, or Submit's ValidateSpec). A spec that would fail ValidateSpec
// still takes an id and a row, and the planner, whose materializeSpec runs
// the same check, counts it rejected and records it as shed.
func (e *Engine) SubmitBatch(specs []RequestSpec) (BatchResult, error) {
	return e.submitBatch(nil, specs)
}

// SubmitBatchAs is SubmitBatch under ids the caller chose, one per spec:
// the cluster's, which the rows, the DecisionObserver report, Snapshot and
// Status then all carry. An id must not name a request whose row this
// engine still holds. Neither slice is kept past the call.
func (e *Engine) SubmitBatchAs(ids []uint64, specs []RequestSpec) (BatchResult, error) {
	if len(ids) != len(specs) {
		return BatchResult{}, fmt.Errorf("serve: %d ids for %d specs", len(ids), len(specs))
	}
	return e.submitBatch(ids, specs)
}

// submitBatch runs the batch through the door on the caller's goroutine.
// It holds the door lock, never the planner lock, so a batch waits for
// the batches ahead of it and for a drain taking the buffer, never for a
// slot. ids holds the caller's ids, one per spec; empty, it is storage
// for the engine's own numbering (nil allocates).
func (e *Engine) submitBatch(ids []uint64, specs []RequestSpec) (BatchResult, error) {
	if len(specs) == 0 {
		return BatchResult{}, nil
	}
	if e.Draining() {
		return BatchResult{}, e.refusal()
	}
	if e.atDoor.Add(1) > batchQueue+1 {
		e.atDoor.Add(-1)
		e.metrics.Saturated.Inc()
		return BatchResult{}, ErrSaturated
	}
	defer e.atDoor.Add(-1)
	e.door.Lock()
	defer e.door.Unlock()
	// A drain raises its flag before its forced take from the door, so a
	// batch that passes this check is in the buffer before that take looks.
	if e.Draining() {
		return BatchResult{}, e.refusal()
	}
	res := e.pumpBatch(ids, specs)
	e.metrics.Batches.Inc()
	e.metrics.BatchRequests.Add(uint64(len(specs)))
	return res, nil
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
// drain of the door that ignores the MaxPending backpressure bound (it
// exists for wall-clock overload, not for replay harnesses). Replay and the oracle
// differential call it before ticking, so a slot schedules exactly the
// requests submitted before it.
func (e *Engine) Flush() error {
	if err := e.lock(); err != nil {
		return err
	}
	defer e.mu.Unlock()
	e.drainDoor(true)
	return nil
}

// pumpBatch registers, prices, and enqueues one batch (door lock held).
// The table lock is held for the inserts alone — a row exists before its
// entry can reach the planner — and once more if anything shed.
func (e *Engine) pumpBatch(ids []uint64, specs []RequestSpec) BatchResult {
	now := time.Now().UnixNano()
	res := BatchResult{Slot: int(e.metrics.CurrentSlot.Load())}
	numbered := len(ids) > 0
	if !numbered {
		ids = slices.Grow(ids, len(specs))[:len(specs)]
	}
	reqs := slices.Grow(e.reqBuf, len(specs))[:len(specs)]
	// Rows come rowChunk at a time, not two allocations a line.
	var rows []request
	var lives []liveState
	for i, spec := range specs {
		if len(rows) == 0 {
			n := min(rowChunk, len(specs)-i)
			rows, lives = make([]request, n), make([]liveState, n)
		}
		ids[i] = e.takeID(ids[i], numbered)
		reqs[i] = initRequest(&rows[0], &lives[0], ids[i], res.Slot, spec)
		rows, lives = rows[1:], lives[1:]
	}
	e.table.mu.Lock()
	e.table.insert(reqs...)
	e.table.mu.Unlock()

	first := e.pumpSeq
	e.shedBuf = e.shedBuf[:0]
	for i, req := range reqs {
		ent := ingestEntry{req: req, price: specPrice(specs[i]), seq: e.pumpSeq, enqNano: now}
		if victim, shed := e.intake.push(ent, e.cfg.DoorCapacity); shed {
			e.shedBuf = append(e.shedBuf, victim)
		}
		e.pumpSeq++
	}
	clear(reqs) // pins no row past the call
	e.reqBuf = reqs[:0]
	e.metrics.IntakeDepth.Store(int64(len(e.intake.entries)))
	if n := len(e.shedBuf); n > 0 {
		e.metrics.Shed.Add(uint64(n))
		e.table.mu.Lock()
		for _, victim := range e.shedBuf {
			e.table.shed(victim.req, res.Slot)
			if victim.seq >= first {
				res.Lost++
			}
		}
		e.table.mu.Unlock()
	}
	res.IDs, res.Shed = ids, len(e.shedBuf)
	return res
}

// takeID settles a new request's id (door lock held): the engine's next
// when the caller numbered nothing, else the caller's, with the engine's
// own numbering kept above it.
func (e *Engine) takeID(id uint64, numbered bool) uint64 {
	next := e.nextExt.Load()
	if !numbered {
		id = next
	}
	if id >= next {
		e.nextExt.Store(id + 1)
	}
	return id
}

// RingDepth returns how many requests wait at the door (gauge-grade). It
// stays because the benchmark harness, its sole caller, still reads it.
func (e *Engine) RingDepth() int { return int(e.metrics.IntakeDepth.Load()) }

// StagedDepth always returns 0: the door has no overflow stage. It stays
// because the benchmark harness, its sole caller, still reads it.
func (e *Engine) StagedDepth() int64 { return 0 }

// ingestEntry is one request waiting at the door.
type ingestEntry struct {
	req     *request // its row in the request table; the spec rides in req.live
	price   float64  // expected reward under the spec's demand distribution
	seq     uint64   // door-local arrival ordinal: the drain order and the shed tie-break
	enqNano int64    // enqueue timestamp for the intake-latency histogram
}

// doorBuffer is the door's one bounded buffer, guarded by the door lock;
// entries are pushed in increasing seq. Below its bound it is a slice in
// arrival order and a push costs an append. The first push that finds it
// full heapifies it in place into a min-heap on shedsBefore, so that push
// and every later one sheds in O(log n) at most; the next take sorts it
// back into arrival order.
type doorBuffer struct {
	entries []ingestEntry
	heaped  bool
}

// shedsBefore is the shedding order: the lower expected reward first, and
// between equal ones the newer arrival.
func shedsBefore(a, b ingestEntry) bool {
	if a.price != b.price {
		return a.price < b.price
	}
	return a.seq > b.seq
}

// push appends ent unless the buffer already holds capacity entries; then
// the entry first in shedding order, ent included, leaves and is returned.
func (d *doorBuffer) push(ent ingestEntry, capacity int) (victim ingestEntry, shed bool) {
	if len(d.entries) < capacity {
		d.entries = append(d.entries, ent)
		return ingestEntry{}, false
	}
	if !d.heaped {
		for i := len(d.entries)/2 - 1; i >= 0; i-- {
			d.siftDown(i)
		}
		d.heaped = true
	}
	// ent is the newest entry, so at or below the floor price it is the
	// victim itself: shed in O(1), the heap untouched.
	if shedsBefore(ent, d.entries[0]) {
		return ent, true
	}
	victim, d.entries[0] = d.entries[0], ent
	d.siftDown(0)
	return victim, true
}

func (d *doorBuffer) siftDown(i int) {
	h := d.entries
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && shedsBefore(h[c+1], h[c]) {
			c++
		}
		if !shedsBefore(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// take removes the oldest limit entries (every entry when limit < 0) and
// returns them in arrival order. Taking every entry trades storage with
// dst, which must hold no entry the caller still needs; taking a prefix
// copies it into dst.
func (d *doorBuffer) take(limit int, dst []ingestEntry) []ingestEntry {
	if d.heaped {
		slices.SortFunc(d.entries, func(a, b ingestEntry) int { return cmp.Compare(a.seq, b.seq) })
		d.heaped = false
	}
	if limit < 0 || limit >= len(d.entries) {
		out := d.entries
		d.entries = dst[:0]
		return out
	}
	dst = append(dst[:0], d.entries[:limit]...)
	n := copy(d.entries, d.entries[limit:])
	clear(d.entries[n:]) // pins no request past its take
	d.entries = d.entries[:n]
	return dst
}
