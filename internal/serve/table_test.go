package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// modelRow is the map model's view of one request.
type modelRow struct {
	state string
	idx   int // planner index, -1 while unattached
	req   *request
}

func (m modelRow) live() bool { return m.state == StatePending || m.state == StateServing }

// checkTableShape checks the window and the spill against each other: every
// window row sits at its id's offset from base, every spilled id is below
// base, the row counts add up, the ring is within its span cap, and the
// eviction heap holds exactly the spill's terminal rows.
func checkTableShape(t *testing.T, tb *table) {
	t.Helper()
	nwin := 0
	for k := 0; k < tb.span; k++ {
		if req := tb.win[tb.slot(k)]; req != nil {
			if req.rec.ID != tb.base+uint64(k) {
				t.Fatalf("window slot %d past base %d holds id %d", k, tb.base, req.rec.ID)
			}
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
	for id, req := range tb.spill {
		if id >= tb.base || req.rec.ID != id {
			t.Fatalf("spill files row %d under %d, base %d", req.rec.ID, id, tb.base)
		}
		if req.live == nil {
			terminal++
		}
	}
	for _, req := range tb.done {
		if req.live != nil || tb.spill[req.rec.ID] != req {
			t.Fatalf("eviction heap holds row %d, which is not a terminal spilled row", req.rec.ID)
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
// panics and changes nothing; and the window and spill keep their shape.
// Ids come in the orders a cluster produces: a stride per seed (1, 2 and 8
// as at 1, 2 and 8 shards), runs of holes (some past the window's span
// cap), and batches reserved early but inserted after later ones — some
// below base. A restore rebuilds the table from its live rows, as a
// checkpoint does.
func TestTableProperty(t *testing.T) {
	const bound, maxLive, steps = 48, 24, 20000
	var belowBase, steppedOver, settledInSpill, spilledTerminal, wrappedGrows, restores int
	for seed := int64(1); seed <= 6; seed++ {
		stride := []uint64{1, 2, 8}[seed%3]
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
		attached := func(state string) func(*modelRow) bool {
			return func(m *modelRow) bool { return m.state == state && m.idx >= 0 }
		}
		settle := func(m *modelRow, state string) {
			if m.req.rec.ID < tb.base {
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
				reqs := make([]*request, len(batch))
				for i, id := range batch {
					if id < tb.base {
						belowBase++
					}
					reqs[i] = newRequest(id, slot, RequestSpec{})
					model[id] = &modelRow{state: StatePending, idx: -1, req: reqs[i]}
					pos, _ := slices.BinarySearch(order, id)
					order = slices.Insert(order, pos, id)
					inserted = append(inserted, id)
				}
				wrapped, ring := tb.head+tb.span > len(tb.win), len(tb.win)
				evicted, skipped := tb.insert(reqs...)
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
				if m := pick(func(m *modelRow) bool { return m.state == StatePending && m.idx < 0 }); m != nil {
					m.idx = len(tb.byIdx)
					tb.attach(m.req, m.idx, slot)
				}
			case op == 4: // serving
				if m := pick(attached(StatePending)); m != nil {
					tb.serving(m.idx, slot, 1, 2.5, 7)
					m.state = StateServing
				}
			case op == 5: // completed
				if m := pick(attached(StateServing)); m != nil {
					settle(m, StateCompleted)
					tb.finish(m.idx, m.state, slot)
				}
			case op == 6: // expired, or evicted at realization
				if m := pick(attached(StatePending)); m != nil {
					settle(m, []string{StateExpired, StateEvicted}[rng.Intn(2)])
					tb.finish(m.idx, m.state, slot)
				}
			case op == 7: // shed, aimed at a row in any state
				if m := pick(func(*modelRow) bool { return true }); m != nil {
					tb.shed(m.req, slot)
					if m.state == StatePending && m.idx < 0 {
						settle(m, StateShed)
					}
				}
			case op == 8: // an id submitted twice, whatever its row's state
				if m := pick(func(*modelRow) bool { return true }); m != nil {
					id := m.req.rec.ID
					func() {
						defer func() {
							if recover() == nil {
								t.Fatalf("seed %d step %d: id %d inserted again while its %s row is held", seed, step, id, m.state)
							}
						}()
						tb.insert(newRequest(id, slot, RequestSpec{}))
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
					if m := model[id]; m.state == StatePending && m.idx < 0 {
						m.idx = len(tb.byIdx)
						tb.attach(m.req, m.idx, slot)
					}
				}
				var rows []*request
				var serving []int
				for _, req := range tb.byIdx {
					if req == nil {
						continue
					}
					m := model[req.rec.ID]
					m.idx = len(rows)
					m.req = newRequest(req.rec.ID, req.rec.SubmittedSlot, RequestSpec{})
					if m.state == StateServing {
						serving = append(serving, m.idx)
					}
					rows = append(rows, m.req)
				}
				tb = newTable(bound, nil)
				tb.restore(rows)
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
			// Every retained id leads to its row, which carries live state
			// exactly while it is live.
			for _, id := range order {
				m := model[id]
				req := tb.row(id)
				if req != m.req {
					t.Fatalf("seed %d step %d: id %d does not lead to its row", seed, step, id)
				}
				rec, ok, err := tb.status(id)
				if err != nil || !ok || rec.State != m.state {
					t.Fatalf("seed %d step %d: status(%d) = %+v ok=%v err=%v, model state %q", seed, step, id, rec, ok, err, m.state)
				}
				if (req.live != nil) != m.live() {
					t.Fatalf("seed %d step %d: id %d in state %q has live part %v", seed, step, id, m.state, req.live != nil)
				}
				if m.live() && m.idx >= 0 && (tb.byIdx[m.idx] != req || req.live.idx != m.idx) {
					t.Fatalf("seed %d step %d: planner index %d does not lead to id %d and back", seed, step, m.idx, id)
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
		tb.insert(last)
		checkTableShape(t, tb)
		if tb.row(math.MaxUint64) != last {
			t.Fatalf("seed %d: id 2^64-1 does not lead to its row", seed)
		}
	}
	t.Logf("inserts below base %d, inserts stepping over live rows %d, settles in the spill %d, steps with terminal spilled rows %d, ring grown wrapped %d, restores %d",
		belowBase, steppedOver, settledInSpill, spilledTerminal, wrappedGrows, restores)
	if belowBase == 0 || steppedOver == 0 || settledInSpill == 0 || spilledTerminal == 0 || wrappedGrows == 0 || restores == 0 {
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
	old := make([]*request, 8)
	for id := uint64(0); id < bound; id++ {
		req := newRequest(id, 0, RequestSpec{})
		tb.insert(req)
		tb.attach(req, len(tb.byIdx), 0)
		if id < 8 { // the eight oldest stay live, the rest settle
			old[id] = req
			continue
		}
		tb.finish(req.live.idx, StateExpired, 1)
	}
	for id := uint64(bound); id < bound+100; id++ {
		want := 0
		if id == bound {
			want = 8
		}
		if evicted, skipped := tb.insert(newRequest(id, 2, RequestSpec{})); evicted != 1 || skipped != want {
			t.Fatalf("insert %d: evicted %d and stepped over %d rows, want 1 and %d", id, evicted, skipped, want)
		}
	}
	// A batch evicts its size and steps over nothing.
	batch := make([]*request, 50)
	for i := range batch {
		batch[i] = newRequest(uint64(bound+100+i), 3, RequestSpec{})
	}
	if evicted, skipped := tb.insert(batch...); evicted != 50 || skipped != 0 {
		t.Fatalf("batch insert: evicted %d and stepped over %d rows, want 50 and 0", evicted, skipped)
	}
	for id := uint64(0); id < 8; id++ {
		if _, ok, _ := tb.status(id); !ok {
			t.Fatalf("live id %d was evicted", id)
		}
	}
	// The spilled rows settle and are the next to go, lowest id first.
	for _, req := range old[:3] {
		tb.finish(req.live.idx, StateCompleted, 4)
	}
	if evicted, skipped := tb.insert(newRequest(bound+150, 4, RequestSpec{}), newRequest(bound+151, 4, RequestSpec{})); evicted != 2 || skipped != 0 {
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
