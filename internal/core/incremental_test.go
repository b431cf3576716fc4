package core

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"mecoffload/internal/dist"
	"mecoffload/internal/graph"
	"mecoffload/internal/mec"
	"mecoffload/internal/topology"
	"mecoffload/internal/workload"
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

// filed reports whether the cache holds a filed copy under pass 0's key
// of the component keyed at station key.
func (h *incHarness) filed(key int) bool {
	e := h.inc.get(0, key)
	return e != nil && e.sig != nil
}

// TestIncCacheThirdSighting pins the filing rule: a signature met for the
// first time is solved cold and only its hash is kept, the second
// sighting in a row is solved again and filed with its solution, and the
// third replays it, building no LP. A change — capacity, an arrival, a
// departure — starts the count over. A signature passing through for one
// slot leaves the filed copy in place, so the steady one replays as soon
// as it is back; one met twice in a row replaces the copy.
func TestIncCacheThirdSighting(t *testing.T) {
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
		filed        bool // a copy is filed under key 0 after the step
	}
	one, both := []int{0}, []int{0, 1}
	idle, loaded := []float64{0, 0}, []float64{500, 0}
	cases := []struct {
		name  string
		steps []step
	}{
		{"hash, file, replay", []step{
			{"hash", one, idle, 0, 1, false},
			{"file", one, idle, 0, 1, true},
			{"replay", one, idle, 1, 0, true},
			{"replay again", one, idle, 1, 0, true},
		}},
		{"capacity change between sightings", []step{
			{"hash", one, idle, 0, 1, false},
			{"capacity moved: hash", one, loaded, 0, 1, false},
			{"file the new level", one, loaded, 0, 1, true},
			{"replay the new level", one, loaded, 1, 0, true},
		}},
		{"arrival between sightings", []step{
			{"hash", one, idle, 0, 1, false},
			{"arrival: hash", both, idle, 0, 1, false},
			{"file", both, idle, 0, 1, true},
			{"replay", both, idle, 1, 0, true},
		}},
		{"departure between sightings", []step{
			{"hash", both, idle, 0, 1, false},
			{"departure: hash", one, idle, 0, 1, false},
			{"file", one, idle, 0, 1, true},
			{"replay", one, idle, 1, 0, true},
		}},
		{"a one-slot blip keeps the filed copy", []step{
			{"hash", one, idle, 0, 1, false},
			{"file", one, idle, 0, 1, true},
			{"capacity moved: solve, keep the copy", one, loaded, 0, 1, true},
			{"back: replay", one, idle, 1, 0, true},
			{"replay again", one, idle, 1, 0, true},
		}},
		{"a signature met twice in a row replaces the filed copy", []step{
			{"hash", one, idle, 0, 1, false},
			{"file", one, idle, 0, 1, true},
			{"capacity moved: hash", one, loaded, 0, 1, true},
			{"file the new level", one, loaded, 0, 1, true},
			{"replay the new level", one, loaded, 1, 0, true},
			{"back: hash again", one, idle, 0, 1, true},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newIncHarness(t, n, reqs)
			for _, st := range tc.steps {
				h.slot(st.name, st.active, st.used, st.clean, st.dirty)
				if got := h.filed(0); got != st.filed {
					t.Fatalf("%s: filed copy %v, want %v", st.name, got, st.filed)
				}
			}
		})
	}
}

// TestIncCacheFeedbackOnlySlotStaysClean pins the quiet-slot contract:
// slots with no arrivals, no departures, and unchanged residual capacity
// (only bandit feedback happened elsewhere) re-present bit-identical
// component signatures, so from the third such slot on every component
// is a clean hit and the filed decisions are replayed exactly.
func TestIncCacheFeedbackOnlySlotStaysClean(t *testing.T) {
	n := incTestNetwork(t)
	reqs := []*mec.Request{
		incTestRequest(t, 0, 0, 40, 120), // station 0 only
		incTestRequest(t, 1, 1, 40, 180), // station 1 only
	}
	used := []float64{0, 0}
	h := newIncHarness(t, n, reqs)

	h.slot("slot 1 (cold cache)", []int{0, 1}, used, 0, 2)
	h.slot("slot 2 (second sighting: filed)", []int{0, 1}, used, 0, 2)
	for _, name := range []string{"slot 3 (feedback-only)", "slot 4 (feedback-only)"} {
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
// component on another station stays clean. The shrunk component files
// its new signature at the slot after the departure and replays from the
// one after that.
func TestIncCacheDepartureDirtiesComponent(t *testing.T) {
	n := incTestNetwork(t)
	reqs := []*mec.Request{
		incTestRequest(t, 0, 0, 40, 120), // station 0, departs after slot 3
		incTestRequest(t, 1, 0, 40, 150), // station 0, stays
		incTestRequest(t, 2, 1, 40, 180), // station 1, stays
	}
	used := []float64{0, 0}
	h := newIncHarness(t, n, reqs)

	h.slot("slot 1 (cold cache)", []int{0, 1, 2}, used, 0, 2)
	h.slot("slot 2 (filed)", []int{0, 1, 2}, used, 0, 2)
	h.slot("slot 3 (replay)", []int{0, 1, 2}, used, 2, 0)

	// Request 0 departs: station 0's component shrinks (dirty), station
	// 1's is untouched (clean).
	h.slot("slot 4 (departure)", []int{1, 2}, used, 1, 1)
	h.slot("slot 5 (shrunk component filed)", []int{1, 2}, used, 1, 1)
	h.slot("slot 6 (post-departure steady state)", []int{1, 2}, used, 2, 0)
}

// TestIncCacheBridgeMergesAndSplits pins the merge/split edge case: a
// bridging request whose candidates span both stations fuses the two
// single-station components into one (re-solved as a whole), and its
// departure splits them apart again. The split re-solves only the
// component whose filed copy the merged solve replaced — the merged
// component was filed under the smallest station key (0), so station 1's
// pre-merge copy survives and replays clean immediately.
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
	h.slot("slot 2 (filed)", []int{0, 1}, used, 0, 2)
	h.slot("slot 3 (replay)", []int{0, 1}, used, 2, 0)

	// The bridge arrives: one merged component, necessarily dirty; the
	// same merged shape is filed the slot after and replays the next.
	h.slot("slot 4 (merged by bridge)", []int{0, 1, 2}, used, 0, 1)
	h.slot("slot 5 (merged filed)", []int{0, 1, 2}, used, 0, 1)
	h.slot("slot 6 (merged replay)", []int{0, 1, 2}, used, 1, 0)

	// The bridge departs: the islands reappear. Key 0's copy was replaced
	// by the merged solve (dirty again); key 1 still holds slot 2's copy.
	h.slot("slot 7 (split)", []int{0, 1}, used, 1, 1)
	h.slot("slot 8 (island 0 filed again)", []int{0, 1}, used, 1, 1)
	h.slot("slot 9 (post-split steady state)", []int{0, 1}, used, 2, 0)
}

// TestIncCacheCapacityChangeInvalidates pins the residual-capacity edge
// case: occupancy committed on a station between slots changes that
// station's residual-capacity signature word, invalidating its filed
// decision even though the request population is unchanged. The other
// station's component stays clean, and the new capacity level itself
// files and replays.
func TestIncCacheCapacityChangeInvalidates(t *testing.T) {
	n := incTestNetwork(t)
	reqs := []*mec.Request{
		incTestRequest(t, 0, 0, 40, 120), // station 0 only
		incTestRequest(t, 1, 1, 40, 180), // station 1 only
	}
	h := newIncHarness(t, n, reqs)

	h.slot("slot 1 (cold cache)", []int{0, 1}, []float64{0, 0}, 0, 2)
	h.slot("slot 2 (filed)", []int{0, 1}, []float64{0, 0}, 0, 2)
	h.slot("slot 3 (replay)", []int{0, 1}, []float64{0, 0}, 2, 0)

	// 500 MHz lands on station 0 (a long-running admission elsewhere):
	// its component's residual capacity changes, so the filed decision
	// must not be replayed; station 1 is untouched.
	loaded := []float64{500, 0}
	h.slot("slot 4 (capacity change)", []int{0, 1}, loaded, 1, 1)
	h.slot("slot 5 (new level filed)", []int{0, 1}, loaded, 1, 1)
	h.slot("slot 6 (new level replayed)", []int{0, 1}, loaded, 2, 0)
}

// filedWords counts the signature, variable and solution words the cache
// holds in filed copies.
func filedWords(c *IncCache) int {
	w := 0
	for _, e := range c.entries {
		w += len(e.sig) + len(e.vars) + len(e.y)
	}
	return w
}

// TestIncCacheFilesOnlyRepeats pins what the filing rule saves: over
// churn-like slots — a random third of 40 requests on 20 stations against
// a random ledger, every slot — no signature repeats, so every component
// is solved and the cache files not one signature, variable or solution
// word. The same wave repeated files every component at its second
// sighting and replays all of them, deciding as before, at its third.
func TestIncCacheFilesOnlyRepeats(t *testing.T) {
	net, reqs, _ := churnBatch(t, 20, 40, 200)
	rng := rand.New(rand.NewSource(11))
	wave := func() ([]int, []float64) {
		var active []int
		for j := range reqs {
			if rng.Intn(3) == 0 {
				active = append(active, j)
			}
		}
		used := make([]float64, net.NumStations())
		for i := range used {
			used[i] = 0.95 * rng.Float64() * net.Capacity(i)
		}
		return active, used
	}
	slot := func(inc *IncCache, active []int, baseUsed []float64, seed int64) []Decision {
		workload.Reset(reqs)
		res := newBatchResult(reqs)
		rt := float64(max(1, len(active)))
		if _, err := ScheduleBatch(net, reqs, res, rand.New(rand.NewSource(seed)), BatchOptions{
			Active:      active,
			Used:        slices.Clone(baseUsed),
			ShareCapMBs: func(i int) float64 { return net.Capacity(i) / rt / net.CUnit() },
			Distribute:  true,
			Inc:         inc,
		}); err != nil {
			t.Fatal(err)
		}
		return res.Decisions
	}

	churn := NewIncCache()
	for s := 0; s < 40; s++ {
		active, used := wave()
		slot(churn, active, used, int64(s))
	}
	st := churn.Stats()
	if st.DirtySolves < 100 || st.CleanHits != 0 {
		t.Fatalf("churn: %d solves, %d replays; want a hundred solves and no replay", st.DirtySolves, st.CleanHits)
	}
	if w := filedWords(churn); w != 0 {
		t.Fatalf("churn: %d words filed over %d keys, want 0", w, len(churn.entries))
	}

	steady := NewIncCache()
	active, used := wave()
	first := slot(steady, active, used, 3)
	if w := filedWords(steady); w != 0 {
		t.Fatalf("wave, first sighting: %d words filed, want 0", w)
	}
	slot(steady, active, used, 3)
	for key, e := range steady.entries {
		if e.sig == nil || len(e.vars) == 0 || len(e.y) != len(e.vars) {
			t.Fatalf("wave, second sighting: pass %d key %d filed %d signature, %d variable and %d solution words",
				key.pass, key.shard, len(e.sig), len(e.vars), len(e.y))
		}
	}
	before := steady.Stats()
	third := slot(steady, active, used, 3)
	now := steady.Stats()
	if solved, replayed := now.DirtySolves-before.DirtySolves, now.CleanHits-before.CleanHits; solved != 0 || replayed == 0 {
		t.Fatalf("wave, third sighting: %d solves, %d replays; want every component replayed", solved, replayed)
	}
	if !reflect.DeepEqual(third, first) {
		t.Fatal("wave, third sighting: the replay decides otherwise than the first solve")
	}
}

// TestIncCacheCollisionSolves pins that the hash only decides what is
// filed: an entry whose hash is this slot's signature's but whose filed
// copy is another signature's — what a collision leaves — is solved, not
// replayed, and decides what the reference with no cache decides (the
// one DynamicRR's SetIncCache(nil) runs). The solve then files, since
// the hash matched, and replays the slot after.
func TestIncCacheCollisionSolves(t *testing.T) {
	n := incTestNetwork(t)
	reqs := []*mec.Request{
		incTestRequest(t, 0, 0, 40, 120), // station 0 only
		incTestRequest(t, 1, 0, 40, 150), // station 0 only
	}
	one := []int{0, 1}
	idle, loaded := []float64{0, 0}, []float64{500, 0}

	// The loaded level's signature, from a cache of its own.
	other := NewIncCache()
	for range 2 {
		incSlot(t, n, reqs, one, loaded, BatchOptions{Inc: other})
	}
	want := other.get(0, 0).sig

	h := newIncHarness(t, n, reqs)
	h.slot("hash", one, idle, 0, 1)
	h.slot("file", one, idle, 0, 1)
	e := h.inc.get(0, 0)
	if slices.Equal(e.sig, want) {
		t.Fatal("the two levels share a signature")
	}
	e.hash = sigHash(want) // the idle copy under the loaded level's hash
	h.slot("forged: solve", one, loaded, 0, 1)
	if !slices.Equal(e.sig, want) {
		t.Fatal("the solve whose hash matched was not filed")
	}
	h.slot("replay", one, loaded, 1, 0)
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
