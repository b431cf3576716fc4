package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime/metrics"
	"slices"
	"testing"
	"unsafe"
)

// modelRow is the map model's view of one request.
type modelRow struct {
	state rowState
	idx   int // planner index, -1 while unattached
	part  *liveState
}

func (m modelRow) live() bool { return m.state.live() }

// newRequest is a request's live part before the table files it: id,
// spec and arrival slot, and no row yet.
func newRequest(id uint64, slot int, spec RequestSpec) *liveState {
	return &liveState{id: id, spec: spec, arrival: slot}
}

// checkTableShape checks the window, the spill and the slab against each
// other: every window slot and spill entry names a carved row, no row is
// named twice or both held and free, every carved row is held or free (so
// eviction loses none), every spilled id is below base, the row counts add
// up, the ring is within its span cap, and the eviction heap holds exactly
// the spill's terminal ids.
func checkTableShape(t *testing.T, tb *table) {
	t.Helper()
	named := map[int32]bool{}
	claim := func(r int32, where string, id uint64) {
		t.Helper()
		if r <= noRow || r >= tb.rows.n || named[r] {
			t.Fatalf("%s %d names row %d: not one of the %d carved, or named twice", where, id, r, tb.rows.n)
		}
		named[r] = true
	}
	nwin := 0
	for k := 0; k < tb.span; k++ {
		if r := tb.win[tb.slot(k)]; r != noRow {
			claim(r, "window id", tb.base+uint64(k))
			nwin++
		}
	}
	if nwin != tb.nwin || tb.span > len(tb.win) {
		t.Fatalf("window counts %d rows over span %d, ring %d, table says %d", nwin, tb.span, len(tb.win), tb.nwin)
	}
	if limit := spanPerRow * tb.max; tb.span > limit || len(tb.win) > max(limit+limit/4, 64) {
		t.Fatalf("window spans %d ids in a ring of %d, cap %d", tb.span, len(tb.win), limit)
	}
	terminal := 0
	for id, r := range tb.spill {
		if id >= tb.base {
			t.Fatalf("spill files id %d, base %d", id, tb.base)
		}
		claim(r, "spilled id", id)
		if !tb.at(r).state.live() {
			terminal++
		}
	}
	for k, r := range tb.rows.free {
		claim(r, "free list entry", uint64(k))
	}
	if carved := int(tb.rows.n) - 1; len(named) != max(carved, 0) {
		t.Fatalf("%d rows carved, %d held or free: a row leaked", carved, len(named))
	}
	for _, id := range tb.done {
		if r, ok := tb.spill[id]; !ok || tb.at(r).state.live() {
			t.Fatalf("eviction heap holds id %d, which is not a terminal spilled row", id)
		}
	}
	if terminal != len(tb.done) {
		t.Fatalf("spill holds %d terminal rows, the eviction heap %d", terminal, len(tb.done))
	}
}

// TestTableProperty drives the request table with seeded random transition
// sequences against a map model and checks, after every step: each
// retained id answers with the model's state and each evicted id is
// unknown; shed moves only a pending record the planner has not seen; the
// table never exceeds its bound; no live record is ever evicted; evictions
// take the lowest-id terminal record first; no insert steps over more rows
// than are live, and no row is stepped over twice; inserting an id whose
// row the table holds, live or terminal, in the window or in the spill,
// panics and changes nothing; the window, the spill and the slab keep
// their shape; and an evicted id answers unknown once its row index is
// handed to a new request, at every stride and after a restore.
// Ids come in the orders a cluster produces: a stride per seed (1, 2 and 8
// as at 1, 2 and 8 shards), runs of holes (some past the window's span
// cap), and batches reserved early but inserted after later ones — some
// below base. A restore rebuilds the table from its live rows, as a
// checkpoint does.
func TestTableProperty(t *testing.T) {
	const bound, maxLive, steps = 48, 24, 20000
	var belowBase, steppedOver, settledInSpill, spilledTerminal, wrappedGrows, restores int
	var reuses, reusesAfterRestore [3]int // by stride: 1, 2, 8
	for seed := int64(1); seed <= 6; seed++ {
		stride := []uint64{1, 2, 8}[seed%3]
		freed := map[int32]uint64{} // row index -> the id last evicted from it
		restored := false
		rng := rand.New(rand.NewSource(seed))
		tb := newTable(bound, nil)
		model := map[uint64]*modelRow{}
		var order []uint64 // retained ids, ascending
		var inserted []uint64
		var deferred [][]uint64 // reserved batches not yet inserted
		var nextID uint64
		var skippedTotal int
		slot := 0

		pick := func(ok func(*modelRow) bool) *modelRow {
			var cands []*modelRow
			for _, id := range order {
				if m := model[id]; ok(m) {
					cands = append(cands, m)
				}
			}
			if len(cands) == 0 {
				return nil
			}
			return cands[rng.Intn(len(cands))]
		}
		numLive := func() (n int) {
			for _, id := range order {
				if model[id].live() {
					n++
				}
			}
			return n
		}
		attached := func(state rowState) func(*modelRow) bool {
			return func(m *modelRow) bool { return m.state == state && m.idx >= 0 }
		}
		// take: the planner takes a row from the door.
		take := func(m *modelRow) {
			m.idx, m.state = len(tb.byIdx), rowPending
			tb.attach(m.part, slot)
			tb.admit(1)
		}
		settle := func(m *modelRow, state rowState) {
			if m.part.id < tb.base {
				settledInSpill++
			}
			m.state = state
		}

		for step := 0; step < steps; step++ {
			slot++
			switch op := rng.Intn(13); {
			case op < 3: // a batch arrives, then the bound is enforced
				var batch []uint64
				late := len(deferred) > 0 && rng.Intn(3) == 0
				if late { // a batch that reserved its ids earlier lands now
					k := rng.Intn(len(deferred))
					batch = deferred[k]
					deferred = slices.Delete(deferred, k, k+1)
				} else {
					for range 1 + rng.Intn(3) {
						batch = append(batch, nextID)
						nextID += stride
					}
					if rng.Intn(8) == 0 { // reserved now, inserted later
						deferred = append(deferred, batch)
						continue
					}
				}
				if numLive()+len(batch) > maxLive {
					if late {
						deferred = append(deferred, batch)
					}
					continue
				}
				reqs := make([]*liveState, len(batch))
				for i, id := range batch {
					if id < tb.base {
						belowBase++
					}
					reqs[i] = newRequest(id, slot, RequestSpec{})
					model[id] = &modelRow{state: rowDoor, idx: -1, part: reqs[i]}
					pos, _ := slices.BinarySearch(order, id)
					order = slices.Insert(order, pos, id)
					inserted = append(inserted, id)
				}
				wrapped, ring := tb.head+tb.span > len(tb.win), len(tb.win)
				evicted, skipped := tb.insert(slot, reqs...)
				for _, live := range reqs {
					old, ok := freed[live.row]
					if !ok {
						continue
					}
					delete(freed, live.row)
					if reuses[seed%3]++; restored {
						reusesAfterRestore[seed%3]++
					}
					if _, ok, err := tb.status(old); ok || err != nil {
						t.Fatalf("seed %d step %d: evicted id %d answers (ok=%v err=%v) once its row went to id %d", seed, step, old, ok, err, live.id)
					}
				}
				if wrapped && len(tb.win) > ring {
					wrappedGrows++
				}
				if skipped > 0 {
					steppedOver++
				}
				if skipped > numLive() {
					t.Fatalf("seed %d step %d: insert stepped over %d rows with %d live", seed, step, skipped, numLive())
				}
				if skippedTotal += skipped; skippedTotal > len(inserted) {
					t.Fatalf("seed %d step %d: %d rows stepped over, %d ever inserted: a row was stepped over twice", seed, step, skippedTotal, len(inserted))
				}
				// The model evicts lowest-id-terminal-first down to the bound.
				want := 0
				keep := order[:0]
				for _, id := range order {
					if len(order)-want > bound && !model[id].live() {
						freed[model[id].part.row] = id
						delete(model, id)
						want++
						continue
					}
					keep = append(keep, id)
				}
				order = keep
				if evicted != want {
					t.Fatalf("seed %d step %d: evicted %d rows, model evicts %d", seed, step, evicted, want)
				}
			case op == 3: // a drain of the door appends an entry to the planner
				if m := pick(func(m *modelRow) bool { return m.state == rowDoor }); m != nil {
					take(m)
				}
			case op == 4: // serving
				if m := pick(attached(rowPending)); m != nil {
					tb.serving(m.idx, slot, 1, 2.5, 7)
					m.state = rowServing
				}
			case op == 5: // completed
				if m := pick(attached(rowServing)); m != nil {
					settle(m, rowCompleted)
					tb.finish(m.idx, m.state, slot)
				}
			case op == 6: // expired, or evicted at realization
				if m := pick(attached(rowPending)); m != nil {
					settle(m, []rowState{rowExpired, rowEvicted}[rng.Intn(2)])
					tb.finish(m.idx, m.state, slot)
				}
			case op == 7: // shed, aimed at a row in any state
				if m := pick(func(*modelRow) bool { return true }); m != nil {
					tb.shed(m.part, slot)
					if m.state == rowDoor {
						settle(m, rowShed)
					}
				}
			case op == 8: // an id submitted twice, whatever its row's state
				if m := pick(func(*modelRow) bool { return true }); m != nil {
					id := m.part.id
					func() {
						defer func() {
							if recover() == nil {
								t.Fatalf("seed %d step %d: id %d inserted again while its %s row is held", seed, step, id, stateNames[m.state])
							}
						}()
						tb.insert(slot, newRequest(id, slot, RequestSpec{}))
					}()
				}
			case op == 9: // a run of ids routed elsewhere, now and then past the span cap
				nextID += uint64(rng.Intn(8))
				if rng.Intn(64) == 0 { // a long one: the span grows, and the ring with it
					nextID += uint64(rng.Intn(4 * bound))
				}
				if rng.Intn(256) == 0 {
					nextID += uint64(spanPerRow*bound) << uint(rng.Intn(32))
				}
			case op == 10 && rng.Intn(128) == 0: // a restore from the live rows
				restores++
				for _, id := range order { // the door drains before a snapshot
					if m := model[id]; m.state == rowDoor {
						take(m)
					}
				}
				var rows []*liveState
				var serving []int
				for _, live := range tb.byIdx {
					if live == nil {
						continue
					}
					m := model[live.id]
					m.idx = len(rows)
					m.part = newRequest(live.id, tb.at(live.row).submitted, RequestSpec{})
					if m.state == rowServing {
						serving = append(serving, m.idx)
					}
					rows = append(rows, m.part)
				}
				tb = newTable(bound, nil)
				tb.restore(rows)
				clear(freed)
				restored = true
				for _, idx := range serving {
					tb.serving(idx, slot, 1, 2.5, 7)
				}
				keep := order[:0]
				for _, id := range order {
					if model[id].live() {
						keep = append(keep, id)
					} else {
						delete(model, id)
					}
				}
				order = keep
			default: // compaction: the live planner rows close ranks, in planner order
				tb.compact()
				var rows []*modelRow
				for _, id := range order {
					if m := model[id]; m.live() && m.idx >= 0 {
						rows = append(rows, m)
					}
				}
				slices.SortFunc(rows, func(a, b *modelRow) int { return a.idx - b.idx })
				for k, m := range rows {
					m.idx = k
				}
				if len(tb.byIdx) != len(rows) {
					t.Fatalf("seed %d step %d: %d planner indices after compaction, %d live rows", seed, step, len(tb.byIdx), len(rows))
				}
			}

			if held := tb.nwin + len(tb.spill); held != len(order) || held > bound {
				t.Fatalf("seed %d step %d: table holds %d rows, model %d, bound %d", seed, step, held, len(order), bound)
			}
			checkTableShape(t, tb)
			if len(tb.done) > 0 {
				spilledTerminal++
			}
			// Every retained id leads to its row, in the model's state, and
			// the planner's indices lead to the live parts of exactly the
			// live requests the planner holds.
			for _, id := range order {
				m := model[id]
				r := tb.row(id)
				if r != m.part.row {
					t.Fatalf("seed %d step %d: id %d does not lead to its row", seed, step, id)
				}
				req := tb.at(r)
				rec, ok, err := tb.status(id)
				if err != nil || !ok || req.state != m.state || rec.State != stateNames[m.state] {
					t.Fatalf("seed %d step %d: status(%d) = %+v ok=%v err=%v in state %d, model state %d", seed, step, id, rec, ok, err, req.state, m.state)
				}
				if m.live() && m.idx >= 0 && tb.byIdx[m.idx] != m.part {
					t.Fatalf("seed %d step %d: planner index %d does not lead to id %d", seed, step, m.idx, id)
				}
			}
			for idx, live := range tb.byIdx {
				if live == nil {
					continue
				}
				if m := model[live.id]; m == nil || !m.live() || m.idx != idx {
					t.Fatalf("seed %d step %d: planner index %d holds id %d, which the model does not hold there", seed, step, idx, live.id)
				}
			}
		}
		// Evicted ids are unknown, not errors.
		for _, id := range inserted {
			if _, kept := model[id]; kept {
				continue
			}
			if _, ok, err := tb.status(id); ok || err != nil {
				t.Fatalf("seed %d: evicted id %d still answers (ok=%v err=%v)", seed, id, ok, err)
			}
		}
		if len(inserted) < 4*bound {
			t.Fatalf("seed %d: only %d submissions, the bound was never under pressure", seed, len(inserted))
		}
		// The last id there is: the span cap keeps the window's arithmetic
		// in range.
		last := newRequest(math.MaxUint64, slot, RequestSpec{})
		tb.insert(slot, last)
		checkTableShape(t, tb)
		if tb.row(math.MaxUint64) != last.row {
			t.Fatalf("seed %d: id 2^64-1 does not lead to its row", seed)
		}
	}
	t.Logf("inserts below base %d, inserts stepping over live rows %d, settles in the spill %d, steps with terminal spilled rows %d, ring grown wrapped %d, restores %d, rows reused at strides 1/2/8 %v (after a restore %v)",
		belowBase, steppedOver, settledInSpill, spilledTerminal, wrappedGrows, restores, reuses, reusesAfterRestore)
	if belowBase == 0 || steppedOver == 0 || settledInSpill == 0 || spilledTerminal == 0 || wrappedGrows == 0 || restores == 0 ||
		slices.Contains(reuses[:], 0) || slices.Contains(reusesAfterRestore[:], 0) {
		t.Fatal("a case the window must handle never came up")
	}
}

// TestTableEvictionCostsWhatItEvicts pins the cursor against table size:
// with the bound's worth of terminal rows behind a few old live ones, the
// first insert over the bound steps over the live rows once, moving them
// to the spill, and evicts one row; every later insert evicts one row and
// steps over nothing. Once the spilled rows settle, they go first.
func TestTableEvictionCostsWhatItEvicts(t *testing.T) {
	const bound = 4096
	tb := newTable(bound, nil)
	for id := uint64(0); id < bound; id++ { // planner index id
		req := newRequest(id, 0, RequestSpec{})
		tb.insert(0, req)
		tb.attach(req, 0)
		tb.admit(1)
		if id >= 8 { // the eight oldest stay live, the rest settle
			tb.finish(int(id), rowExpired, 1)
		}
	}
	for id := uint64(bound); id < bound+100; id++ {
		want := 0
		if id == bound {
			want = 8
		}
		if evicted, skipped := tb.insert(2, newRequest(id, 2, RequestSpec{})); evicted != 1 || skipped != want {
			t.Fatalf("insert %d: evicted %d and stepped over %d rows, want 1 and %d", id, evicted, skipped, want)
		}
	}
	// A batch evicts its size and steps over nothing.
	batch := make([]*liveState, 50)
	for i := range batch {
		batch[i] = newRequest(uint64(bound+100+i), 3, RequestSpec{})
	}
	if evicted, skipped := tb.insert(3, batch...); evicted != 50 || skipped != 0 {
		t.Fatalf("batch insert: evicted %d and stepped over %d rows, want 50 and 0", evicted, skipped)
	}
	for id := uint64(0); id < 8; id++ {
		if _, ok, _ := tb.status(id); !ok {
			t.Fatalf("live id %d was evicted", id)
		}
	}
	// The spilled rows settle and are the next to go, lowest id first.
	for idx := range 3 {
		tb.finish(idx, rowCompleted, 4)
	}
	if evicted, skipped := tb.insert(4, newRequest(bound+150, 4, RequestSpec{}), newRequest(bound+151, 4, RequestSpec{})); evicted != 2 || skipped != 0 {
		t.Fatalf("insert after settling: evicted %d and stepped over %d rows, want 2 and 0", evicted, skipped)
	}
	for id, want := range []bool{false, false, true, true} {
		if _, ok, _ := tb.status(uint64(id)); ok != want {
			t.Fatalf("after two evictions, status(%d) known=%v, want %v", id, ok, want)
		}
	}
	checkTableShape(t, tb)
}

// TestEntryPointsAgree: handing an engine the ids it would have taken
// itself changes nothing. For each intake path, one engine numbers a
// schedule of submissions itself and its twin is handed the same ids; after
// every slot their rows, their decision reports and their snapshots must be
// identical, byte for byte.
func TestEntryPointsAgree(t *testing.T) {
	spec := func(i int) RequestSpec {
		return RequestSpec{AccessStation: i % 4, DurationSlots: 1 + i%3, DeadlineMS: float64(200 + 100*(i%4)),
			Outcomes: []OutcomeSpec{{RateMBs: float64(40 + 20*(i%3)), Prob: 1, Reward: float64(100 + i)}}}
	}
	type engine struct {
		*Engine
		decisions []string
	}
	build := func(t *testing.T) *engine {
		en := &engine{}
		en.Engine = testEngine(t, Config{
			Net: testNetwork(t, 4), Rng: rand.New(rand.NewSource(42)),
			DecisionObserver: func(slot int, admitted []uint64, reward float64) {
				en.decisions = append(en.decisions, fmt.Sprintf("%d %v %.6f", slot, admitted, reward))
			},
		})
		return en
	}
	cases := []struct {
		name string
		// submit sends specs[0..n) as ids first..first+n-1: own numbers
		// them itself, as hands them the ids.
		own func(t *testing.T, e *Engine, specs []RequestSpec) []uint64
		as  func(t *testing.T, e *Engine, first uint64, specs []RequestSpec)
	}{
		{"single",
			func(t *testing.T, e *Engine, specs []RequestSpec) (ids []uint64) {
				for _, s := range specs {
					id, _, err := e.Submit(s)
					if err != nil {
						t.Fatal(err)
					}
					ids = append(ids, id)
				}
				return ids
			},
			func(t *testing.T, e *Engine, first uint64, specs []RequestSpec) {
				for i, s := range specs {
					if _, err := e.SubmitBatchAs([]uint64{first + uint64(i)}, []RequestSpec{s}); err != nil {
						t.Fatal(err)
					}
				}
			}},
		{"batch",
			func(t *testing.T, e *Engine, specs []RequestSpec) []uint64 {
				res, err := e.SubmitBatch(specs)
				if err != nil {
					t.Fatal(err)
				}
				if err := e.Flush(); err != nil {
					t.Fatal(err)
				}
				return res.IDs
			},
			func(t *testing.T, e *Engine, first uint64, specs []RequestSpec) {
				ids := make([]uint64, len(specs))
				for i := range ids {
					ids[i] = first + uint64(i)
				}
				if res, err := e.SubmitBatchAs(ids, specs); err != nil || res.Shed != 0 {
					t.Fatalf("shed %d, err %v", res.Shed, err)
				}
				if err := e.Flush(); err != nil {
					t.Fatal(err)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			own, as := build(t), build(t)
			var next uint64
			for slot := 0; slot < 12; slot++ {
				var specs []RequestSpec
				for i := 0; i < 5+slot%4; i++ {
					specs = append(specs, spec(int(next)+i))
				}
				ids := tc.own(t, own.Engine, specs)
				if len(ids) != len(specs) || ids[0] != next {
					t.Fatalf("slot %d: the self-numbering engine handed out %v, want %d ids from %d", slot, ids, len(specs), next)
				}
				tc.as(t, as.Engine, next, specs)
				next += uint64(len(specs))
				for _, e := range []*engine{own, as} {
					if err := e.Tick(); err != nil {
						t.Fatal(err)
					}
				}
				for id := uint64(0); id < next; id++ {
					a, aok, aerr := own.Status(id)
					b, bok, berr := as.Status(id)
					if a != b || aok != bok || aerr != nil || berr != nil || !aok {
						t.Fatalf("slot %d id %d: rows differ: %+v (%v, %v) against %+v (%v, %v)", slot, id, a, aok, aerr, b, bok, berr)
					}
				}
				var snaps [2][]byte
				for k, e := range []*engine{own, as} {
					ck, err := e.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					if snaps[k], err = json.Marshal(ck); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(snaps[0], snaps[1]) {
					t.Fatalf("slot %d: snapshots differ\n self-numbered: %s\n handed ids:    %s", slot, snaps[0], snaps[1])
				}
			}
			if !reflect.DeepEqual(own.decisions, as.decisions) || len(own.decisions) == 0 {
				t.Fatalf("decision reports differ\n self-numbered: %v\n handed ids:    %v", own.decisions, as.decisions)
			}
		})
	}
}

// TestRequestRowIsCompact pins the row layout a settled request costs: at
// most 48 bytes, no id field (the id is where the table keeps the row's
// index), no field the garbage collector would scan (so slab pages are
// allocated noscan), and a page of pageRows rows within one row of the
// malloc size class it lands in, so rounding wastes less than a row per
// page.
func TestRequestRowIsCompact(t *testing.T) {
	size := unsafe.Sizeof(request{})
	if size > 48 {
		t.Errorf("a row is %d bytes, want at most 48", size)
	}
	if _, ok := reflect.TypeOf(request{}).FieldByName("id"); ok {
		t.Error("a row holds its id, which the table already knows it by")
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("row field %s is a %s, which the garbage collector scans", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("request", reflect.TypeOf(request{}))

	chunk := unsafe.Sizeof(rowPage{})
	sample := []metrics.Sample{{Name: "/gc/heap/allocs-by-size:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindFloat64Histogram {
		t.Fatal("the runtime reports no allocation size classes")
	}
	// Bucket boundaries sit one byte above each size class.
	class := uintptr(0)
	for _, b := range sample[0].Value.Float64Histogram().Buckets[1:] {
		if !math.IsInf(b, 1) && uintptr(b)-1 >= chunk {
			class = uintptr(b) - 1
			break
		}
	}
	if class == 0 {
		t.Fatalf("a %d-byte page is past every small size class", chunk)
	}
	if class-chunk >= size {
		t.Errorf("%d rows of %d bytes fill %d bytes of a %d-byte size class: a row or more wasted per page", pageRows, size, chunk, class)
	}
	t.Logf("%d rows of %d bytes: %d bytes in the %d-byte size class", pageRows, size, chunk, class)
}

// TestFullTableRecyclesRows: once an engine's table is at its bound, a
// 500-line SubmitBatch files its rows in those the eviction before it
// freed — the slab carves no row and grows no page — and the evicted ids
// answer unknown. The table is filled with the bound's worth of settled
// rows, as a long-running daemon's is; the first batch past the bound
// carves its rows, and evicts as many for the next batch to take.
func TestFullTableRecyclesRows(t *testing.T) {
	e := testEngine(t, Config{})
	lives := make([]liveState, maxRecords)
	e.table.mu.Lock()
	for i := range lives {
		lives[i].id = uint64(i)
		e.table.insert(0, &lives[i])
		e.table.at(lives[i].row).state = rowCompleted
	}
	e.table.mu.Unlock()
	e.nextExt.Store(maxRecords)

	specs := make([]RequestSpec, 500)
	for i := range specs {
		specs[i] = RequestSpec{AccessStation: i % 4, DurationSlots: 2}
	}
	submit := func() {
		t.Helper()
		if _, err := e.SubmitBatch(specs); err != nil {
			t.Fatal(err)
		}
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	submit()
	carved, pages := e.table.rows.n, len(*e.table.rows.pages.Load())
	for round := 1; round <= 4; round++ {
		submit()
		if n, p := e.table.rows.n, len(*e.table.rows.pages.Load()); n != carved || p != pages {
			t.Fatalf("batch %d at the bound carved the slab from %d rows in %d pages to %d in %d", round, carved, pages, n, p)
		}
		if _, ok, _ := e.Status(uint64(500*(round+1) - 1)); ok {
			t.Fatalf("batch %d: id %d, evicted, still answers", round, 500*(round+1)-1)
		}
	}
	if want := int32(maxRecords + 500 + 1); carved != want {
		t.Fatalf("the slab carved %d rows (the null row included), want the bound plus one batch, %d", carved, want)
	}
}
