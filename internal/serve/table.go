package serve

import (
	"fmt"
	"sync"
)

// The request table: everything one engine knows about a request, keyed
// by the id its caller knows it by (the cluster's id, or the engine's own
// numbering when nobody hands one down), behind one RWMutex. A row is the
// externally visible RequestRecord plus, only while the request is
// undecided or in service, the planner-side state the planner needs. Every
// state transition is a method called where the transition happens: the
// door inserts and sheds, the planner lock's holder does the rest.
//
// The map, the submission-order list, the records and each row's live
// pointer are written and read under mu. byIdx and what a live pointer
// leads to belong to the planner lock (the door fills a row in before
// handing it over through the ring), so its holder reads them without the
// table lock. Transition methods expect the caller to hold the write lock:
// once per batch at the door, once per slot that decided something, never
// on an idle slot.

// Request lifecycle states exposed by GET /v1/requests/{id}.
const (
	// StatePending: submitted, waiting in the admission queue.
	StatePending = "pending"
	// StateServing: admitted, stream holding its service instance.
	StateServing = "serving"
	// StateCompleted: stream finished its hold and departed (terminal).
	StateCompleted = "completed"
	// StateEvicted: admitted but terminated — demand overflow or deadline
	// miss at realization (no reward), or a station outage mid-hold
	// (terminal).
	StateEvicted = "evicted"
	// StateExpired: never admitted; deadline became unreachable on every
	// station (terminal).
	StateExpired = "expired"
	// StateShed: accepted into the batched intake path but dropped by
	// the reward-aware overload policy (or refused at ingest) before
	// ever reaching the scheduler (terminal).
	StateShed = "shed"
	// StateMigrated: handed off to another cluster shard while pending
	// (terminal for this engine; the cluster router forwards status
	// lookups to the new owner).
	StateMigrated = "migrated"
)

// RequestRecord is one request's externally visible status.
type RequestRecord struct {
	ID            uint64  `json:"id"`
	State         string  `json:"state"`
	Station       int     `json:"station"`
	SubmittedSlot int     `json:"submittedSlot"`
	DecisionSlot  int     `json:"decisionSlot,omitempty"`
	DepartSlot    int     `json:"departSlot,omitempty"`
	Reward        float64 `json:"reward,omitempty"`
	LatencyMS     float64 `json:"latencyMS,omitempty"`
}

// maxRecords bounds the table: past it the oldest terminal records go,
// and an evicted id answers Status as unknown.
const maxRecords = 262144

// request is one row. live is nil exactly when the record is terminal, so
// a settled request keeps its 72-byte record and nothing else.
type request struct {
	rec  RequestRecord
	next *request // submission order, oldest first
	live *liveState
}

// liveState is what the planner side needs of an undecided or in-service
// request. idx is the planner's index for it, -1 until the planner
// appends it (it is still travelling the ingest stage and ring).
type liveState struct {
	spec    RequestSpec
	arrival int
	idx     int
}

type table struct {
	mu     sync.RWMutex
	closed bool
	max    int
	rows   map[uint64]*request
	// head..tail chain every row in submission order for eviction.
	head, tail *request
	// byIdx maps a planner index to its row, nil once that request
	// settled. Compaction drops the nil entries in place, as the planner
	// drops their requests, and renumbers each row's live.idx to match.
	byIdx []*request
	// stations holds the capacities the engine was built with and the
	// occupancy as of the last slot that moved it.
	stations []StationGauge
}

func newTable(max int, stations []StationGauge) *table {
	return &table{max: max, rows: make(map[uint64]*request), stations: stations}
}

// rowChunk is how many rows of a batch share one allocation. Rows carved
// from one array are freed together: the records when eviction has passed
// all of them, the live parts when the last of them settles, so one
// long-lived stream pins at most rowChunk live parts (5.5 KB), not its
// batch's.
const rowChunk = 64

func newRequest(id uint64, slot int, spec RequestSpec) *request {
	return initRequest(new(request), new(liveState), id, slot, spec)
}

// initRequest fills in a pending row in storage the caller provides.
func initRequest(req *request, live *liveState, id uint64, slot int, spec RequestSpec) *request {
	*live = liveState{spec: spec, idx: -1}
	*req = request{
		rec:  RequestRecord{ID: id, State: StatePending, Station: -1, SubmittedSlot: slot},
		live: live,
	}
	return req
}

// insert links pending rows at the young end of the submission order and
// enforces the bound: oldest terminal record first, a live one never. The
// walk starts at the old end and stops as soon as the table fits (or at
// the rows just linked), so one call costs the rows it evicts plus the
// live rows it steps over to reach them, whatever the table's size.
//
// An id whose terminal row the table still holds — it left by Extract and
// the cluster has brought it back — takes that row over where it is linked
// and reqs[i] is repointed at it: a second row under the id would be
// deleted from rows when eviction reached the first. The revived row is
// live, so eviction steps over its old position like any live row's. An id
// that is live here is the caller's bug.
func (t *table) insert(reqs ...*request) (evicted, skipped int) {
	var first *request // the oldest row linked by this call
	for i, req := range reqs {
		if old := t.rows[req.rec.ID]; old != nil {
			if old.live != nil {
				panic(fmt.Sprintf("serve: request id %d submitted while it is live", req.rec.ID))
			}
			old.rec, old.live = req.rec, req.live
			reqs[i] = old
			continue
		}
		t.rows[req.rec.ID] = req
		if t.tail == nil {
			t.head = req
		} else {
			t.tail.next = req
		}
		t.tail = req
		if first == nil {
			first = req
		}
	}
	if first == nil {
		return 0, 0 // nothing was linked, so the table did not grow
	}
	link := &t.head // the pointer that leads to old
	for old := t.head; len(t.rows) > t.max && old != first; old = old.next {
		if old.live != nil {
			link = &old.next
			skipped++
			continue
		}
		delete(t.rows, old.rec.ID)
		*link = old.next
		evicted++
	}
	return evicted, skipped
}

// shed drops a pending request the planner has not seen: an overload
// victim of the stage, or one the planner refused at ingest. A request the
// planner holds is the scheduler's to decide.
func (t *table) shed(req *request, slot int) {
	if req.live == nil || req.live.idx >= 0 {
		return
	}
	req.rec.State, req.rec.DecisionSlot, req.live = StateShed, slot, nil
}

// attach records that the planner now holds req at index idx. Planner
// lock held; needs no table lock (see the ownership note above).
func (t *table) attach(req *request, idx, arrival int) {
	req.live.idx, req.live.arrival = idx, arrival
	t.byIdx = append(t.byIdx, req) // idx == len(byIdx): both count the planner's requests
}

// compact follows the planner's compaction: the settled (nil) entries of
// byIdx go, and every live row's idx becomes its new, dense position.
// Planner lock held, like attach.
func (t *table) compact() {
	live := t.byIdx[:0]
	for _, req := range t.byIdx {
		if req != nil {
			req.live.idx = len(live)
			live = append(live, req)
		}
	}
	clear(t.byIdx[len(live):])
	t.byIdx = live
}

// serving: the request at planner index idx was admitted and survived
// settlement.
func (t *table) serving(idx, slot, station int, reward, latencyMS float64) {
	rec := &t.byIdx[idx].rec
	rec.State, rec.Station, rec.DecisionSlot, rec.Reward, rec.LatencyMS = StateServing, station, slot, reward, latencyMS
}

// finish moves the request at planner index idx to a terminal state as of
// slot and drops its live part. The record is returned for the one field
// some transitions add (an eviction at realization names its station).
func (t *table) finish(idx int, state string, slot int) *RequestRecord {
	req := t.byIdx[idx]
	t.byIdx[idx], req.live = nil, nil
	req.rec.State = state
	if state == StateCompleted {
		req.rec.DepartSlot = slot
	} else {
		req.rec.DecisionSlot = slot
	}
	return &req.rec
}

// status answers a lookup; unknown ids (never seen, or evicted) are not an
// error. After close it fails with ErrStopped.
func (t *table) status(id uint64) (RequestRecord, bool, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed {
		return RequestRecord{}, false, ErrStopped
	}
	req, ok := t.rows[id]
	if !ok {
		return RequestRecord{}, false, nil
	}
	return req.rec, true, nil
}

func (t *table) gauges() []StationGauge {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]StationGauge(nil), t.stations...)
}
