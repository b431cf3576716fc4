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
// numbering when nobody hands one down), behind one RWMutex. A row is a
// pointer-free record of what GET /v1/requests/{id} shows, its state a
// one-byte code that status renders as a State* string. What the planner
// needs of an undecided or in-service request — its spec and arrival — is
// its liveState, held outside the table: by the door's entry until the
// planner takes it, then by the planner's index (byIdx) until it settles.
// Every state transition is a method called where the transition happens:
// the door inserts and sheds, the planner lock's holder does the rest.
//
// A row is found by its id's offset, as ids are handed out: they rise (1
// in N of them at N shards), so the rows live in a window indexed by
// id − base that grows at its young end, and eviction walks a cursor up
// from base. The few rows whose ids are below base — live rows the cursor
// stepped over, a concurrent batch's late inserts, rows the window's span
// cap pushed out — sit in a small spill map, found by hash.
//
// The window, the spill and the rows are written and read under mu. byIdx
// and the live parts belong to the planner lock (the door fills a row in
// before the planner can take it from the door), so its holder reads them,
// and a row's state, without the table lock. Transition methods expect the
// caller to hold the write lock: once per batch at the door, once per take
// from the door, once per slot that decided something, never on an idle
// slot.

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

// rowState is a row's lifecycle state, in the order a request moves
// through them: the live states first, then the terminal ones.
type rowState uint8

const (
	// rowDoor: waiting at the door, not yet taken by the planner. It
	// renders as pending, and only a row in it can be shed.
	rowDoor rowState = iota
	rowPending
	rowServing
	rowCompleted
	rowEvicted
	rowExpired
	rowShed
)

// stateNames renders each rowState as GET /v1/requests/{id} spells it.
var stateNames = [...]string{
	rowDoor:      StatePending,
	rowPending:   StatePending,
	rowServing:   StateServing,
	rowCompleted: StateCompleted,
	rowEvicted:   StateEvicted,
	rowExpired:   StateExpired,
	rowShed:      StateShed,
}

// live reports whether a request in this state is undecided or in
// service, so its live part is held and its row is never evicted.
func (s rowState) live() bool { return s <= rowServing }

// request is one row: a RequestRecord with its state as a code, 56 bytes
// that hold no pointer, so a settled request costs its row and its window
// slot and nothing the garbage collector scans.
type request struct {
	id                          uint64
	reward, latencyMS           float64
	submitted, decision, depart int
	station                     int32
	state                       rowState
}

// record renders the row as the status lookup answers it.
func (r *request) record() RequestRecord {
	return RequestRecord{
		ID:            r.id,
		State:         stateNames[r.state],
		Station:       int(r.station),
		SubmittedSlot: r.submitted,
		DecisionSlot:  r.decision,
		DepartSlot:    r.depart,
		Reward:        r.reward,
		LatencyMS:     r.latencyMS,
	}
}

// liveState is what the planner side needs of an undecided or in-service
// request, and the way to its row.
type liveState struct {
	row     *request
	spec    RequestSpec
	arrival int
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
	// byIdx maps a planner index to its request's live part, nil once
	// that request settled. Compaction drops the nil entries in place, as
	// the planner drops their requests.
	byIdx []*liveState
	// stations holds the capacities the engine was built with and the
	// occupancy as of the last slot that moved it.
	stations []StationGauge
}

func newTable(max int, stations []StationGauge) *table {
	return &table{max: max, stations: stations}
}

// rowChunk is how many rows of a batch share one allocation: 73 rows of
// 56 bytes fill 4 088 of the 4 096-byte size class. Rows carved from one
// chunk are freed together, when eviction has passed all of them; the
// live parts come in chunks of the same count and are freed when the last
// of them settles, so one long-lived stream pins at most rowChunk live
// parts (6.4 KB), not its batch's.
const rowChunk = 73

// newRequest allocates a row at the door and its live part on their own
// (a restore, and tests), and returns the live part, arriving in the slot
// it was submitted in.
func newRequest(id uint64, slot int, spec RequestSpec) *liveState {
	live := initRequest(new(request), new(liveState), id, slot, spec)
	live.arrival = slot
	return live
}

// initRequest fills in a row at the door, and its live part, in storage
// the caller provides.
func initRequest(req *request, live *liveState, id uint64, slot int, spec RequestSpec) *liveState {
	*req = request{id: id, station: -1, submitted: slot}
	*live = liveState{row: req, spec: spec}
	return live
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
func (t *table) insert(lives ...*liveState) (evicted, skipped int) {
	for _, live := range lives {
		t.place(live.row)
	}
	for t.nwin+len(t.spill) > t.max {
		if len(t.done) > 0 {
			delete(t.spill, heap.Pop(&t.done).(*request).id)
			evicted++
			continue
		}
		if t.nwin == 0 {
			break // every row held is live and spilled
		}
		switch req := t.advance(); {
		case req == nil:
		case req.state.live():
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
	id := req.id
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
	t.spill[req.id] = req
	t.spilledDone(req)
}

// spilledDone queues a terminal spilled row for eviction.
func (t *table) spilledDone(req *request) {
	if !req.state.live() && req.id < t.base {
		heap.Push(&t.done, req)
	}
}

// doneHeap orders rows by id, lowest first.
type doneHeap []*request

func (h doneHeap) Len() int           { return len(h) }
func (h doneHeap) Less(i, j int) bool { return h[i].id < h[j].id }
func (h doneHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *doneHeap) Push(x any)        { *h = append(*h, x.(*request)) }
func (h *doneHeap) Pop() any {
	old := *h
	req := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return req
}

// restore loads a checkpoint's live requests, given in planner order,
// into the empty table: inserted in id order, so the window starts at the
// oldest, and attached pending at their positions.
func (t *table) restore(lives []*liveState) {
	byID := slices.Clone(lives)
	slices.SortFunc(byID, func(a, b *liveState) int { return cmp.Compare(a.row.id, b.row.id) })
	t.insert(byID...)
	for _, live := range lives {
		t.attach(live, live.arrival)
	}
	t.admit(len(lives))
}

// shed drops a request still waiting at the door: an overload victim of
// the door, or one the planner refused at ingest. A request the planner
// holds is the scheduler's to decide.
func (t *table) shed(req *request, slot int) {
	if req.state != rowDoor {
		return
	}
	req.state, req.decision = rowShed, slot
	t.spilledDone(req)
}

// attach appends a request the planner now holds to byIdx: its index there
// is the planner's. Planner lock held; needs no table lock (see the
// ownership note above), as it leaves the row alone.
func (t *table) attach(live *liveState, arrival int) {
	live.arrival = arrival
	t.byIdx = append(t.byIdx, live) // both count the planner's requests
}

// admit moves the rows of the newest n planner indices from the door to
// pending, once per take from the door: the write lock's one acquisition
// the take needs.
func (t *table) admit(n int) {
	for _, live := range t.byIdx[len(t.byIdx)-n:] {
		live.row.state = rowPending
	}
}

// compact follows the planner's compaction: the settled (nil) entries of
// byIdx go, and every live request keeps its order. Planner lock held,
// like attach.
func (t *table) compact() {
	t.byIdx = slices.DeleteFunc(t.byIdx, func(l *liveState) bool { return l == nil })
}

// serving: the request at planner index idx was admitted and survived
// settlement.
func (t *table) serving(idx, slot, station int, reward, latencyMS float64) {
	req := t.byIdx[idx].row
	req.state, req.station, req.decision, req.reward, req.latencyMS = rowServing, int32(station), slot, reward, latencyMS
}

// finish moves the request at planner index idx to a terminal state as of
// slot and drops its live part. The row is returned for the one field
// some transitions add (an eviction at realization names its station).
func (t *table) finish(idx int, state rowState, slot int) *request {
	req := t.byIdx[idx].row
	t.byIdx[idx] = nil
	req.state = state
	if state == rowCompleted {
		req.depart = slot
	} else {
		req.decision = slot
	}
	t.spilledDone(req)
	return req
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
	return req.record(), true, nil
}

func (t *table) gauges() []StationGauge {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]StationGauge(nil), t.stations...)
}
