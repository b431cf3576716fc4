package serve

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
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
// in N of them at N shards), so the rows' indices live in a window indexed
// by id − base that grows at its young end, and eviction walks a cursor up
// from base. The few rows whose ids are below base — live rows the cursor
// stepped over, a concurrent batch's late inserts, rows the window's span
// cap pushed out — sit in a small spill map, found by hash. A row holds no
// id and no pointer: it lives in a slab of pages that never move, found by
// a 4-byte index, and an evicted row's index is handed to the next request.
//
// The window, the spill and the rows are written and read under mu. byIdx
// and the live parts belong to the planner lock (the door fills a row in
// before the planner can take it from the door), so its holder reads them,
// and the rows of the live parts it holds, without the table lock; the
// slab publishes its page directory atomically for that. Transition
// methods expect the caller to hold the write lock: once per batch at the
// door, once per take from the door, once per slot that decided something,
// never on an idle slot.

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

// request is one row: a RequestRecord without its id, found by it (its
// window offset or its spill key is the id), its state a code. 45 bytes
// of fields in 48 that hold no pointer, 3 of them spare, so a settled
// request costs its row and its window slot and nothing the garbage
// collector scans.
type request struct {
	reward, latencyMS           float64
	submitted, decision, depart int
	station                     int32
	state                       rowState
}

// record renders id's row as the status lookup answers it.
func (r *request) record(id uint64) RequestRecord {
	return RequestRecord{
		ID:            id,
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
// request: its id, its spec and arrival, and the index of its row.
type liveState struct {
	id      uint64
	spec    RequestSpec
	arrival int
	row     int32
}

// liveChunk is how many live parts of a batch share one allocation: 64
// of 96 bytes fill the 6 144-byte size class. A chunk is freed when the
// last of its live parts settles, so one long-lived stream pins at most
// liveChunk of them, not its batch's.
const liveChunk = 64

// pageRows is how many rows a slab page holds: 85 rows of 48 bytes fill
// 4 080 of the 4 096-byte size class.
const pageRows = 85

type rowPage [pageRows]request

// noRow is the row index that names no row: index 0 is never handed out,
// so an empty ring slot or spill lookup reads it.
const noRow int32 = 0

// rowSlab holds a table's rows in pages that are never moved or freed
// while the table lives: row i is slot i%pageRows of page i/pageRows. An
// evicted row's index goes on free, which newRow takes from before it
// carves a new row, so a table at its bound files a batch without
// allocating a row. The page directory is published through an atomic
// pointer and grown copy-on-write under the table lock, so the planner
// lock's holder reads its own rows without the table lock while the door
// grows the slab: a published directory is never written below its
// length, and a page never moves.
type rowSlab struct {
	pages atomic.Pointer[[]*rowPage]
	n     int32 // rows carved, the null row 0 included
	free  []int32
}

// at is row i.
func (s *rowSlab) at(i int32) *request {
	return &(*s.pages.Load())[i/pageRows][i%pageRows]
}

// newRow hands out a row index: a freed one if any, else the next carved,
// from a new page when the last is full.
func (s *rowSlab) newRow() int32 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		return i
	}
	if s.n%pageRows == 0 {
		var pages []*rowPage
		if p := s.pages.Load(); p != nil {
			pages = *p
		}
		pages = append(pages, new(rowPage))
		s.pages.Store(&pages)
		s.n = max(s.n, 1) // row 0 stays the null row
	}
	s.n++
	return s.n - 1
}

type table struct {
	mu     sync.RWMutex
	closed bool
	max    int
	rows   rowSlab
	// The window covers the ids base..base+span-1: the row index of id
	// base+k sits k slots after head in the ring win, noRow in a hole (an
	// id this engine never held, or a row gone). nwin counts its rows. The
	// ring keeps its storage as base slides up and grows only when the
	// span outgrows it.
	win              []int32
	head, span, nwin int
	base             uint64
	// spill holds the row of every id below base, and done the ids of its
	// terminal rows as a min-heap: they are the oldest, so they are the
	// first to go when the bound needs a place.
	spill map[uint64]int32
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

// at is row i: under the table lock, or by the planner lock's holder for
// the row of a live part it holds.
func (t *table) at(i int32) *request { return t.rows.at(i) }

// row is id's row index, noRow when the table holds none.
func (t *table) row(id uint64) int32 {
	if id < t.base {
		return t.spill[id]
	}
	if k := id - t.base; k < uint64(t.span) {
		return t.win[t.slot(int(k))]
	}
	return noRow
}

// slot is the ring index of the window's k-th id.
func (t *table) slot(k int) int {
	if k += t.head; k >= len(t.win) {
		k -= len(t.win)
	}
	return k
}

// insert gives each new request a row at the door, submitted in slot,
// files it by id, and enforces the bound (fit).
func (t *table) insert(slot int, lives ...*liveState) (evicted, skipped int) {
	for _, live := range lives {
		t.file(live, slot)
	}
	return t.fit()
}

// file gives a request its row, waiting at the door since submitted, and
// files it: in the spill below base, else in the window, which restarts
// at the id when it is empty, and slides up (spilling what it passes) when
// the id lies more than its span cap above base. An id whose row the
// table still holds, live or terminal, is the caller's bug: ids are never
// reused.
func (t *table) file(live *liveState, submitted int) {
	id := live.id
	if t.row(id) != noRow {
		panic(fmt.Sprintf("serve: request id %d submitted twice", id))
	}
	r := t.rows.newRow()
	*t.at(r) = request{station: -1, submitted: submitted}
	live.row = r
	if id < t.base {
		t.toSpill(id, r)
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
	t.win[t.slot(k)] = r
	t.nwin++
}

// fit enforces the bound: oldest terminal record first, a live one never.
// Spilled terminal rows go first; then a cursor moves base up the window,
// skipping holes, evicting terminal rows and moving live ones to the
// spill, until the table fits (or the window is empty). The cursor passes
// each id once, so one call costs the rows it evicts plus the live rows it
// steps over for the first time, whatever the table's size. An evicted
// row's index goes on the slab's free list.
func (t *table) fit() (evicted, skipped int) {
	for t.nwin+len(t.spill) > t.max {
		if len(t.done) > 0 {
			id := t.done.pop()
			t.rows.free = append(t.rows.free, t.spill[id])
			delete(t.spill, id)
			evicted++
			continue
		}
		if t.nwin == 0 {
			break // every row held is live and spilled
		}
		switch id, r := t.advance(); {
		case r == noRow:
		case t.at(r).state.live():
			t.toSpill(id, r)
			skipped++
		default:
			t.rows.free = append(t.rows.free, r)
			evicted++
		}
	}
	return evicted, skipped
}

// slide moves base up to to, spilling every row it passes, and jumps
// straight there once the window is empty.
func (t *table) slide(to uint64) {
	for t.base < to {
		if t.nwin == 0 {
			t.base, t.head, t.span = to, 0, 0
			return
		}
		if id, r := t.advance(); r != noRow {
			t.toSpill(id, r)
		}
	}
}

// advance moves base one id up and returns that id and its row index
// (noRow in a hole). The window holds a row, so its span is not empty.
func (t *table) advance() (uint64, int32) {
	id, r := t.base, t.win[t.head]
	t.win[t.head] = noRow
	if t.head++; t.head == len(t.win) {
		t.head = 0
	}
	t.base++
	t.span--
	if r != noRow {
		t.nwin--
	}
	return id, r
}

// grow gives the ring room for n ids, with a quarter to spare so the
// span's jitter as base slides does not grow it again.
func (t *table) grow(n int) {
	win := make([]int32, max(n+n/4, 64))
	k := copy(win, t.win[t.head:min(t.head+t.span, len(t.win))])
	copy(win[k:], t.win[:t.span-k])
	t.win, t.head = win, 0
}

// toSpill files the row of an id below base.
func (t *table) toSpill(id uint64, r int32) {
	if t.spill == nil {
		t.spill = make(map[uint64]int32)
	}
	t.spill[id] = r
	t.spilledDone(id, r)
}

// spilledDone queues a terminal spilled row for eviction.
func (t *table) spilledDone(id uint64, r int32) {
	if !t.at(r).state.live() && id < t.base {
		t.done.push(id)
	}
}

// doneHeap is a min-heap of ids, kept by hand so that an id is never
// boxed into an interface on its way in or out.
type doneHeap []uint64

func (h *doneHeap) push(id uint64) {
	*h = append(*h, id)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p] <= s[i] {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *doneHeap) pop() uint64 {
	s := *h
	id, n := s[0], len(s)-1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1] < s[c] {
			c++
		}
		if s[i] <= s[c] {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return id
}

// restore loads a checkpoint's live requests, given in planner order,
// into the empty table: filed in id order, so the window starts at the
// oldest, each submitted in its arrival slot, and attached pending at
// their positions.
func (t *table) restore(lives []*liveState) {
	byID := slices.Clone(lives)
	slices.SortFunc(byID, func(a, b *liveState) int { return cmp.Compare(a.id, b.id) })
	for _, live := range byID {
		t.file(live, live.arrival)
	}
	t.fit()
	for _, live := range lives {
		t.attach(live, live.arrival)
	}
	t.admit(len(lives))
}

// shed drops a request still waiting at the door: an overload victim of
// the door, or one the planner refused at ingest. A request the planner
// holds is the scheduler's to decide.
func (t *table) shed(live *liveState, slot int) {
	req := t.at(live.row)
	if req.state != rowDoor {
		return
	}
	req.state, req.decision = rowShed, slot
	t.spilledDone(live.id, live.row)
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
		t.at(live.row).state = rowPending
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
	req := t.at(t.byIdx[idx].row)
	req.state, req.station, req.decision, req.reward, req.latencyMS = rowServing, int32(station), slot, reward, latencyMS
}

// finish moves the request at planner index idx to a terminal state as of
// slot and drops its live part. The row is returned for the one field
// some transitions add (an eviction at realization names its station).
func (t *table) finish(idx int, state rowState, slot int) *request {
	live := t.byIdx[idx]
	t.byIdx[idx] = nil
	req := t.at(live.row)
	req.state = state
	if state == rowCompleted {
		req.depart = slot
	} else {
		req.decision = slot
	}
	t.spilledDone(live.id, live.row)
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
	r := t.row(id)
	if r == noRow {
		return RequestRecord{}, false, nil
	}
	return t.at(r).record(id), true, nil
}

func (t *table) gauges() []StationGauge {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]StationGauge(nil), t.stations...)
}
