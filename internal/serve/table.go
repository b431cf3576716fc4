package serve

import (
	"cmp"
	"container/heap"
	"fmt"
	"slices"
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
// A row is found by its id's offset, as the cluster's router finds a
// shard: ids rise as they are handed out (1 in N of them at N shards), so
// the rows live in a window indexed by id − base that grows at its young
// end, and eviction walks a cursor up from base. The few rows whose ids
// are below base — live rows the cursor stepped over, a concurrent batch's
// late inserts, rows the window's span cap pushed out — sit in a small
// spill map, found by hash.
//
// The window, the spill, the records and each row's live pointer are
// written and read under mu. byIdx and what a live pointer leads to
// belong to the planner lock (the door fills a row in before the planner
// can take it from the door), so its holder reads them without the table
// lock. Transition methods expect the caller to hold the write lock: once
// per batch at the door, once per slot that decided something, never on
// an idle slot.

// Request lifecycle states exposed by GET /v1/requests/{id}.
const (
	// StatePending: submitted, waiting in the admission queue.
	StatePending = "pending"
	// StateServing: admitted, stream holding its service instance.
	StateServing = "serving"
	// StateCompleted: stream finished its hold and departed (terminal).
	StateCompleted = "completed"
	// StateEvicted: admitted but terminated — demand overflow or deadline
	// miss at realization (no reward; terminal).
	StateEvicted = "evicted"
	// StateExpired: never admitted; deadline became unreachable on every
	// station (terminal).
	StateExpired = "expired"
	// StateShed: accepted at the door but dropped by the reward-aware
	// overload policy (or refused at ingest) before ever reaching the
	// scheduler (terminal).
	StateShed = "shed"
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

// spanPerRow caps the window at spanPerRow·max ids: enough for one shard
// in 16 to fill the bound, while a sparser shard's oldest rows go to the
// spill instead of growing the window further.
const spanPerRow = 16

// request is one row. live is nil exactly when the record is terminal, so
// a settled request keeps its 72-byte record and nothing else.
type request struct {
	rec  RequestRecord
	live *liveState
}

// liveState is what the planner side needs of an undecided or in-service
// request. idx is the planner's index for it, -1 until the planner
// appends it (it is still waiting at the door).
type liveState struct {
	spec    RequestSpec
	arrival int
	idx     int
}

type table struct {
	mu     sync.RWMutex
	closed bool
	max    int
	// The window covers the ids base..base+span-1: the row of id base+k
	// sits k slots after head in the ring win, a nil slot is a hole (an id
	// this engine never held, or a row gone). nwin counts its rows. The
	// ring keeps its storage as base slides up and grows only when the
	// span outgrows it.
	win              []*request
	head, span, nwin int
	base             uint64
	// spill holds every row whose id is below base, and done its terminal
	// rows as a min-heap on id: they are the oldest, so they are the first
	// to go when the bound needs a place.
	spill map[uint64]*request
	done  doneHeap
	// byIdx maps a planner index to its row, nil once that request
	// settled. Compaction drops the nil entries in place, as the planner
	// drops their requests, and renumbers each row's live.idx to match.
	byIdx []*request
	// stations holds the capacities the engine was built with and the
	// occupancy as of the last slot that moved it.
	stations []StationGauge
}

func newTable(max int, stations []StationGauge) *table {
	return &table{max: max, stations: stations}
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

// row is id's row, nil when the table holds none.
func (t *table) row(id uint64) *request {
	if id < t.base {
		return t.spill[id]
	}
	if k := id - t.base; k < uint64(t.span) {
		return t.win[t.slot(int(k))]
	}
	return nil
}

// slot is the ring index of the window's k-th id.
func (t *table) slot(k int) int {
	if k += t.head; k >= len(t.win) {
		k -= len(t.win)
	}
	return k
}

// insert files pending rows by id and enforces the bound: oldest terminal
// record first, a live one never. Spilled terminal rows go first; then a
// cursor moves base up the window, skipping holes, evicting terminal rows
// and moving live ones to the spill, until the table fits (or the window
// is empty). The cursor passes each id once, so one call costs the rows it
// places and evicts plus the live rows it steps over for the first time,
// whatever the table's size. An id whose row the table still holds, live
// or terminal, is the caller's bug: ids are never reused.
func (t *table) insert(reqs ...*request) (evicted, skipped int) {
	for _, req := range reqs {
		t.place(req)
	}
	for t.nwin+len(t.spill) > t.max {
		if len(t.done) > 0 {
			delete(t.spill, heap.Pop(&t.done).(*request).rec.ID)
			evicted++
			continue
		}
		if t.nwin == 0 {
			break // every row held is live and spilled
		}
		switch req := t.advance(); {
		case req == nil:
		case req.live != nil:
			t.toSpill(req)
			skipped++
		default:
			evicted++
		}
	}
	return evicted, skipped
}

// place files one row: in the spill below base, else in the window, which
// restarts at the id when it is empty, and slides up (spilling what it
// passes) when the id lies more than its span cap above base.
func (t *table) place(req *request) {
	id := req.rec.ID
	if t.row(id) != nil {
		panic(fmt.Sprintf("serve: request id %d submitted twice", id))
	}
	if id < t.base {
		t.toSpill(req)
		return
	}
	if t.nwin == 0 {
		t.base, t.head, t.span = id, 0, 0
	}
	if limit := uint64(spanPerRow * t.max); id-t.base >= limit {
		t.slide(id - (limit - 1))
	}
	k := int(id - t.base)
	if k >= len(t.win) {
		t.grow(k + 1)
	}
	t.span = max(t.span, k+1)
	t.win[t.slot(k)] = req
	t.nwin++
}

// slide moves base up to to, spilling every row it passes, and jumps
// straight there once the window is empty.
func (t *table) slide(to uint64) {
	for t.base < to {
		if t.nwin == 0 {
			t.base, t.head, t.span = to, 0, 0
			return
		}
		if req := t.advance(); req != nil {
			t.toSpill(req)
		}
	}
}

// advance moves base one id up and returns the row it passed, if any.
// The window holds a row, so its span is not empty.
func (t *table) advance() *request {
	req := t.win[t.head]
	t.win[t.head] = nil
	if t.head++; t.head == len(t.win) {
		t.head = 0
	}
	t.base++
	t.span--
	if req != nil {
		t.nwin--
	}
	return req
}

// grow gives the ring room for n ids, with a quarter to spare so the
// span's jitter as base slides does not grow it again.
func (t *table) grow(n int) {
	win := make([]*request, max(n+n/4, 64))
	k := copy(win, t.win[t.head:min(t.head+t.span, len(t.win))])
	copy(win[k:], t.win[:t.span-k])
	t.win, t.head = win, 0
}

// toSpill files a row whose id is below base.
func (t *table) toSpill(req *request) {
	if t.spill == nil {
		t.spill = make(map[uint64]*request)
	}
	t.spill[req.rec.ID] = req
	t.spilledDone(req)
}

// spilledDone queues a terminal spilled row for eviction.
func (t *table) spilledDone(req *request) {
	if req.live == nil && req.rec.ID < t.base {
		heap.Push(&t.done, req)
	}
}

// doneHeap orders rows by id, lowest first.
type doneHeap []*request

func (h doneHeap) Len() int           { return len(h) }
func (h doneHeap) Less(i, j int) bool { return h[i].rec.ID < h[j].rec.ID }
func (h doneHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *doneHeap) Push(x any)        { *h = append(*h, x.(*request)) }
func (h *doneHeap) Pop() any {
	old := *h
	req := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return req
}

// restore loads a checkpoint's live rows, given in planner order, into the
// empty table: inserted in id order, so the window starts at the oldest,
// and attached at their positions.
func (t *table) restore(reqs []*request) {
	byID := slices.Clone(reqs)
	slices.SortFunc(byID, func(a, b *request) int { return cmp.Compare(a.rec.ID, b.rec.ID) })
	t.insert(byID...)
	for i, req := range reqs {
		t.attach(req, i, req.rec.SubmittedSlot)
	}
}

// shed drops a pending request the planner has not seen: an overload
// victim of the door, or one the planner refused at ingest. A request the
// planner holds is the scheduler's to decide.
func (t *table) shed(req *request, slot int) {
	if req.live == nil || req.live.idx >= 0 {
		return
	}
	req.rec.State, req.rec.DecisionSlot, req.live = StateShed, slot, nil
	t.spilledDone(req)
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
	t.spilledDone(req)
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
	req := t.row(id)
	if req == nil {
		return RequestRecord{}, false, nil
	}
	return req.rec, true, nil
}

func (t *table) gauges() []StationGauge {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]StationGauge(nil), t.stations...)
}
