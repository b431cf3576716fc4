package core

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"mecoffload/internal/dist"
	"mecoffload/internal/graph"
	"mecoffload/internal/mec"
	"mecoffload/internal/topology"
)

// incTestNetwork builds the two-station bridge network the dirty-set edge
// cases run on: stations 0 and 1 (3000 MHz each) joined by a single 10 ms
// backhaul link, so offloading to the remote station costs a 20 ms round
// trip. A request with a 40 ms deadline is then feasible only at its
// access station (30 ms processing alone), while a 200 ms deadline admits
// both stations — deadlines alone steer the candidate graph's shape.
func incTestNetwork(t *testing.T) *mec.Network {
	t.Helper()
	g := graph.New(2)
	if _, err := g.AddEdge(0, 1, 10); err != nil {
		t.Fatal(err)
	}
	net, err := mec.NewNetwork(mec.NetworkConfig{
		Stations: []mec.BaseStation{
			{CapacityMHz: 3000, SpeedFactor: 1},
			{CapacityMHz: 3000, SpeedFactor: 1},
		},
		Topo: &topology.Topology{
			Graph: g,
			Nodes: []topology.Node{{X: 0, Y: 0}, {X: 0.1, Y: 0}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// incTestRequest builds a single-outcome request (rate 60 MB/s) whose
// candidate set is controlled by its deadline; see incTestNetwork.
func incTestRequest(t *testing.T, id, station int, deadlineMS, reward float64) *mec.Request {
	t.Helper()
	d, err := dist.NewRateReward([]dist.Outcome{{Rate: 60, Prob: 1, Reward: reward}})
	if err != nil {
		t.Fatal(err)
	}
	return &mec.Request{
		ID:            id,
		AccessStation: station,
		Tasks:         []mec.Task{{Name: "render", OutputKb: 100, WorkMS: 30}},
		DeadlineMS:    deadlineMS,
		Dist:          d,
	}
}

// incSlot runs one synthetic scheduling slot: a single-pass ScheduleBatch
// over the given active set against a copy of the baseline occupancy
// ledger (so the caller controls residual capacity per slot exactly), with
// a fixed per-slot rng so repeated slots draw identically. Passes: 1 keeps
// every cache entry on pass 0, making the clean/dirty counters count
// components one-for-one.
func incSlot(t *testing.T, n *mec.Network, reqs []*mec.Request, active []int, baseUsed []float64, opts BatchOptions) *Result {
	t.Helper()
	res := &Result{Algorithm: "inc-test", Decisions: make([]Decision, len(reqs))}
	opts.Active = active
	opts.Used = append([]float64(nil), baseUsed...)
	opts.RoundingDenominator = 1
	opts.Passes = 1
	if _, err := ScheduleBatch(n, reqs, res, rand.New(rand.NewSource(9)), opts); err != nil {
		t.Fatal(err)
	}
	return res
}

// incHarness steps the scheduler as shipped (decision cache, cold solves)
// and the reference (no decision cache: every component re-solved every
// slot, cold) through the same slots, the per-slot refinement of the
// end-to-end oracle.DiffIncrementalFull contract.
type incHarness struct {
	t    *testing.T
	n    *mec.Network
	reqs []*mec.Request
	inc  *IncCache
	// scratches lists every slot scratch the batches made: the slot LPs
	// they built are inspected there.
	scratches func() []*slotScratch
}

func newIncHarness(t *testing.T, n *mec.Network, reqs []*mec.Request) *incHarness {
	return &incHarness{t: t, n: n, reqs: reqs, inc: NewIncCache(), scratches: trackSlotScratches(t)}
}

// trackSlotScratches swaps in a slot-scratch pool that records every
// scratch it makes — whatever the pool later drops, the list keeps — and
// restores the package's pool when the test ends. The batches it serves
// run on the test's goroutine.
func trackSlotScratches(t *testing.T) func() []*slotScratch {
	saved := slotScratchPool
	var made []*slotScratch
	slotScratchPool = &sync.Pool{New: func() any {
		sc := new(slotScratch)
		made = append(made, sc)
		return sc
	}}
	t.Cleanup(func() { slotScratchPool = saved })
	return func() []*slotScratch { return made }
}

// slot runs one slot on both sides and asserts the clean/dirty counter
// movement, that the decisions equal the reference's, and that a slot LP
// with variables was built with the options DynamicRR passes. It is
// unnamed by construction: the slot path writes an lp.Standard, which has
// no names to format or intern.
func (h *incHarness) slot(name string, active []int, used []float64, wantClean, wantDirty uint64) *Result {
	h.t.Helper()
	before := h.inc.Stats()
	got := incSlot(h.t, h.n, h.reqs, active, used, BatchOptions{Inc: h.inc})
	now := h.inc.Stats()
	clean, dirty := now.CleanHits-before.CleanHits, now.DirtySolves-before.DirtySolves
	if clean != wantClean || dirty != wantDirty {
		h.t.Fatalf("%s: clean=%d dirty=%d, want clean=%d dirty=%d", name, clean, dirty, wantClean, wantDirty)
	}
	want := incSlot(h.t, h.n, h.reqs, active, used, BatchOptions{})
	if !reflect.DeepEqual(got.Decisions, want.Decisions) {
		h.t.Fatalf("%s: decisions diverge from the full re-solve:\nreuse: %+v\n full: %+v",
			name, got.Decisions, want.Decisions)
	}
	built := 0
	for _, sc := range h.scratches() {
		if std := sc.build.model.std; std != nil {
			built += std.NumVars()
		}
	}
	if built == 0 {
		h.t.Fatalf("%s: no slot LP with variables was built", name)
	}
	return got
}

// TestIncCacheSecondSighting pins first-sighting replay: a signature miss
// solves cold and caches the solution, and the second sighting already
// replays it, building no LP. Any change — capacity, an arrival, a
// departure — is a miss that caches the new signature, and a signature
// coming back after another one took its cache slot misses again.
func TestIncCacheSecondSighting(t *testing.T) {
	n := incTestNetwork(t)
	reqs := []*mec.Request{
		incTestRequest(t, 0, 0, 40, 120), // station 0 only
		incTestRequest(t, 1, 0, 40, 150), // station 0 only
	}
	type step struct {
		name         string
		active       []int
		used         []float64
		clean, dirty uint64
	}
	one, both := []int{0}, []int{0, 1}
	idle, loaded := []float64{0, 0}, []float64{500, 0}
	cases := []struct {
		name  string
		steps []step
	}{
		{"miss, replay, replay", []step{
			{"miss", one, idle, 0, 1},
			{"replay", one, idle, 1, 0},
			{"replay again", one, idle, 1, 0},
		}},
		{"capacity change between sightings", []step{
			{"miss", one, idle, 0, 1},
			{"capacity moved: miss", one, loaded, 0, 1},
			{"replay the new level", one, loaded, 1, 0},
		}},
		{"arrival between sightings", []step{
			{"miss", one, idle, 0, 1},
			{"arrival: miss", both, idle, 0, 1},
			{"replay", both, idle, 1, 0},
		}},
		{"departure between sightings", []step{
			{"miss", both, idle, 0, 1},
			{"departure: miss", one, idle, 0, 1},
			{"replay", one, idle, 1, 0},
		}},
		{"a signature that comes back starts over", []step{
			{"miss", one, idle, 0, 1},
			{"replay", one, idle, 1, 0},
			{"capacity moved: miss", one, loaded, 0, 1},
			{"back: miss again", one, idle, 0, 1},
			{"replay", one, idle, 1, 0},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newIncHarness(t, n, reqs)
			for _, st := range tc.steps {
				h.slot(st.name, st.active, st.used, st.clean, st.dirty)
			}
		})
	}
}

// TestIncCacheFeedbackOnlySlotStaysClean pins the quiet-slot contract:
// slots with no arrivals, no departures, and unchanged residual capacity
// (only bandit feedback happened elsewhere) re-present bit-identical
// component signatures, so from the second such slot on every component
// is a clean hit and the cached decisions are replayed exactly.
func TestIncCacheFeedbackOnlySlotStaysClean(t *testing.T) {
	n := incTestNetwork(t)
	reqs := []*mec.Request{
		incTestRequest(t, 0, 0, 40, 120), // station 0 only
		incTestRequest(t, 1, 1, 40, 180), // station 1 only
	}
	used := []float64{0, 0}
	h := newIncHarness(t, n, reqs)

	h.slot("slot 1 (cold cache)", []int{0, 1}, used, 0, 2)
	for _, name := range []string{"slot 2 (feedback-only)", "slot 3 (feedback-only)"} {
		res := h.slot(name, []int{0, 1}, used, 2, 0)
		for j := range reqs {
			if !res.Decisions[j].Admitted {
				t.Fatalf("%s: request %d not admitted on the clean replay", name, j)
			}
		}
	}
}

// TestIncCacheDepartureDirtiesComponent pins the departure edge case: a
// request leaving mid-stream changes its component's candidate list, so
// that component (and only that component) re-solves; an untouched
// component on another station stays clean. From the next slot on, the
// stream's steady state is clean again.
func TestIncCacheDepartureDirtiesComponent(t *testing.T) {
	n := incTestNetwork(t)
	reqs := []*mec.Request{
		incTestRequest(t, 0, 0, 40, 120), // station 0, departs after slot 2
		incTestRequest(t, 1, 0, 40, 150), // station 0, stays
		incTestRequest(t, 2, 1, 40, 180), // station 1, stays
	}
	used := []float64{0, 0}
	h := newIncHarness(t, n, reqs)

	h.slot("slot 1 (cold cache)", []int{0, 1, 2}, used, 0, 2)
	h.slot("slot 2 (replay)", []int{0, 1, 2}, used, 2, 0)

	// Request 0 departs: station 0's component shrinks (dirty), station
	// 1's is untouched (clean).
	h.slot("slot 3 (departure)", []int{1, 2}, used, 1, 1)
	h.slot("slot 4 (post-departure steady state)", []int{1, 2}, used, 2, 0)
}

// TestIncCacheBridgeMergesAndSplits pins the merge/split edge case: a
// bridging request whose candidates span both stations fuses the two
// single-station components into one (re-solved as a whole), and its
// departure splits them apart again. The split re-solves only the
// component whose cache slot the merged solve overwrote — the merged
// component was filed under the smallest station key (0), so station 1's
// pre-merge entry survives and replays clean immediately.
func TestIncCacheBridgeMergesAndSplits(t *testing.T) {
	n := incTestNetwork(t)
	reqs := []*mec.Request{
		incTestRequest(t, 0, 0, 40, 120),  // station 0 only
		incTestRequest(t, 1, 1, 40, 180),  // station 1 only
		incTestRequest(t, 2, 0, 200, 150), // bridge: feasible at both stations
	}
	used := []float64{0, 0}
	h := newIncHarness(t, n, reqs)

	h.slot("slot 1 (two islands)", []int{0, 1}, used, 0, 2)
	h.slot("slot 2 (replay)", []int{0, 1}, used, 2, 0)

	// The bridge arrives: one merged component, necessarily dirty; the
	// same merged shape replays the slot after.
	h.slot("slot 3 (merged by bridge)", []int{0, 1, 2}, used, 0, 1)
	h.slot("slot 4 (merged replay)", []int{0, 1, 2}, used, 1, 0)

	// The bridge departs: the islands reappear. Key 0 was overwritten by
	// the merged solve (dirty again); key 1 still holds slot 1's entry.
	h.slot("slot 5 (split)", []int{0, 1}, used, 1, 1)
	h.slot("slot 6 (post-split steady state)", []int{0, 1}, used, 2, 0)
}

// TestIncCacheCapacityChangeInvalidates pins the residual-capacity edge
// case: occupancy committed on a station between slots changes that
// station's residual-capacity signature word, invalidating its cached
// decision even though the request population is unchanged. The other
// station's component stays clean, and the new capacity level itself
// caches.
func TestIncCacheCapacityChangeInvalidates(t *testing.T) {
	n := incTestNetwork(t)
	reqs := []*mec.Request{
		incTestRequest(t, 0, 0, 40, 120), // station 0 only
		incTestRequest(t, 1, 1, 40, 180), // station 1 only
	}
	h := newIncHarness(t, n, reqs)

	h.slot("slot 1 (cold cache)", []int{0, 1}, []float64{0, 0}, 0, 2)
	h.slot("slot 2 (replay)", []int{0, 1}, []float64{0, 0}, 2, 0)

	// 500 MHz lands on station 0 (a long-running admission elsewhere):
	// its component's residual capacity changes, so the cached decision
	// must not be replayed; station 1 is untouched.
	loaded := []float64{500, 0}
	h.slot("slot 3 (capacity change)", []int{0, 1}, loaded, 1, 1)
	h.slot("slot 4 (new level cached)", []int{0, 1}, loaded, 2, 0)
}

// TestScheduleBatchRefusesWarmWithInc pins why the decision cache may
// replay a first solve: the batch that could seed a solve from an older
// basis cannot also reuse decisions.
func TestScheduleBatchRefusesWarmWithInc(t *testing.T) {
	n := incTestNetwork(t)
	reqs := []*mec.Request{incTestRequest(t, 0, 0, 40, 120)}
	res := &Result{Decisions: make([]Decision, len(reqs))}
	_, err := ScheduleBatch(n, reqs, res, rand.New(rand.NewSource(1)), BatchOptions{
		Active: []int{0}, Used: []float64{0, 0}, Warm: NewWarmCache(), Inc: NewIncCache(),
	})
	if !errors.Is(err, ErrWarmWithInc) {
		t.Fatalf("err = %v, want ErrWarmWithInc", err)
	}
}
