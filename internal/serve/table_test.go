package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
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

// TestTableProperty drives the request table with seeded random transition
// sequences against a map model and checks, after every step: each
// retained id answers with the model's state and each evicted id is
// unknown; shed moves only a pending record the planner has not seen; the
// table never exceeds its bound; no live record is ever evicted; evictions
// take the oldest terminal record first; one insert walks no more rows
// than it evicts plus the live rows there are; and inserting an id whose
// row the table holds, live or terminal, panics and changes nothing.
func TestTableProperty(t *testing.T) {
	const bound, maxLive, steps = 48, 24, 30000
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := newTable(bound, nil)
		model := map[uint64]*modelRow{}
		var order []uint64 // retained ids, submission order
		var nextID uint64
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

		for step := 0; step < steps; step++ {
			slot++
			switch op := rng.Intn(11); {
			case op < 3: // submitted, then the bound is enforced
				if numLive() >= maxLive {
					continue
				}
				req := newRequest(nextID, slot, RequestSpec{})
				evicted, skipped := tb.insert(req)
				model[nextID] = &modelRow{state: StatePending, idx: -1, req: req}
				order = append(order, nextID)
				nextID++
				if liveBefore := numLive() - 1; skipped > liveBefore {
					t.Fatalf("seed %d step %d: insert stepped over %d rows with %d live", seed, step, skipped, liveBefore)
				}
				// The model evicts oldest-terminal-first down to the bound.
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
					m.state = StateCompleted
					tb.finish(m.idx, m.state, slot)
				}
			case op == 6: // expired, or evicted at realization
				if m := pick(attached(StatePending)); m != nil {
					m.state = []string{StateExpired, StateEvicted}[rng.Intn(2)]
					tb.finish(m.idx, m.state, slot)
				}
			case op == 7: // shed, aimed at a row in any state
				if m := pick(func(*modelRow) bool { return true }); m != nil {
					tb.shed(m.req, slot)
					if m.state == StatePending && m.idx < 0 {
						m.state = StateShed
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

			if len(tb.rows) != len(order) || len(tb.rows) > bound {
				t.Fatalf("seed %d step %d: table holds %d rows, model %d, bound %d", seed, step, len(tb.rows), len(order), bound)
			}
			// The eviction chain is the retained ids in submission order,
			// and a row carries live state exactly while it is live.
			req := tb.head
			for _, id := range order {
				if req == nil || req.rec.ID != id {
					t.Fatalf("seed %d step %d: eviction chain diverges from submission order at id %d", seed, step, id)
				}
				m := model[id]
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
				if req.next == nil && req != tb.tail {
					t.Fatalf("seed %d step %d: tail does not point at the youngest row", seed, step)
				}
				req = req.next
			}
			if req != nil {
				t.Fatalf("seed %d step %d: eviction chain holds rows the model evicted", seed, step)
			}
		}
		// Evicted ids are unknown, not errors.
		for id := uint64(0); id < nextID; id++ {
			if _, kept := model[id]; kept {
				continue
			}
			if _, ok, err := tb.status(id); ok || err != nil {
				t.Fatalf("seed %d: evicted id %d still answers (ok=%v err=%v)", seed, id, ok, err)
			}
		}
		if nextID < 4*bound {
			t.Fatalf("seed %d: only %d submissions, the bound was never under pressure", seed, nextID)
		}
	}
}

// TestTableEvictionCostsWhatItEvicts pins the walk against table size: with
// the bound's worth of terminal rows behind a few live ones, an insert
// walks one evicted row, not the table.
func TestTableEvictionCostsWhatItEvicts(t *testing.T) {
	const bound = 4096
	tb := newTable(bound, nil)
	for id := uint64(0); id < bound; id++ {
		req := newRequest(id, 0, RequestSpec{})
		tb.insert(req)
		if id >= 8 { // the eight oldest stay live, the rest settle
			tb.attach(req, len(tb.byIdx), 0)
			tb.finish(req.live.idx, StateExpired, 1)
		}
	}
	for id := uint64(bound); id < bound+100; id++ {
		if evicted, skipped := tb.insert(newRequest(id, 2, RequestSpec{})); evicted != 1 || skipped != 8 {
			t.Fatalf("insert %d: walked %d evicted + %d skipped rows, want 1 + 8", id, evicted, skipped)
		}
	}
	// A batch steps over the live rows once, not once per row.
	batch := make([]*request, 50)
	for i := range batch {
		batch[i] = newRequest(uint64(bound+100+i), 3, RequestSpec{})
	}
	if evicted, skipped := tb.insert(batch...); evicted != 50 || skipped != 8 {
		t.Fatalf("batch insert: walked %d evicted + %d skipped rows, want 50 + 8", evicted, skipped)
	}
	for id := uint64(0); id < 8; id++ {
		if _, ok, _ := tb.status(id); !ok {
			t.Fatalf("live id %d was evicted", id)
		}
	}
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
					if _, err := e.SubmitAs(first+uint64(i), s); err != nil {
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
				if shed, err := e.SubmitBatchAs(ids, specs); err != nil || shed != 0 {
					t.Fatalf("shed %d, err %v", shed, err)
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
