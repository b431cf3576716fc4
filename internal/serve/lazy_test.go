package serve

// A pending request is its planner key until R_t first selects it: the
// door checks its spec and files the key (specKey), and the planner builds
// the request from the spec only then (buildSpec, through Engine.build).

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"mecoffload/internal/core"
	"mecoffload/internal/dist"
	"mecoffload/internal/mec"
	"mecoffload/internal/sim"
)

// floodSpecs draws n explicit single-outcome specs, as the flood workload
// posts them: the expected rate of each is its one rate.
func floodSpecs(rng *rand.Rand, n, stations int) []RequestSpec {
	specs := make([]RequestSpec, n)
	for i := range specs {
		specs[i] = RequestSpec{
			AccessStation: rng.Intn(stations),
			DurationSlots: 1 + rng.Intn(3),
			Outcomes:      []OutcomeSpec{{RateMBs: 30 + 20*rng.Float64(), Prob: 1, Reward: 300 + 400*rng.Float64()}},
		}
	}
	return specs
}

// TestUnselectedRequestsNeverBuilt: on a flood whose pending set is many
// times R_t, the planner builds exactly the requests some slot's R_t
// selected — each the first time — and no other. R_t is re-derived each
// slot from the rates the test submitted (its first ⌊free/C^th⌋ pending
// requests by increasing rate, ties by planner index), not from the
// engine's keys; an unexported observer on the engine sees every build.
func TestUnselectedRequestsNeverBuilt(t *testing.T) {
	const stations, slots, perSlot = 4, 30, 250
	var e *Engine
	rates := map[uint64]float64{}
	selected, built := map[uint64]bool{}, map[uint64]int{}
	maxPending, maxRt := 0, 0
	check := func(_ *sim.Engine, _ *core.Result, _ sim.SlotReport, info sim.StepInfo) error {
		drr, ok := info.Sched.(*sim.DynamicRR)
		cth, played := drr.LastThreshold()
		if !ok || !played || len(info.Pending) == 0 {
			return nil
		}
		id := func(j int) uint64 { return e.table.byIdx[j].id }
		order := slices.Clone(info.Pending)
		slices.SortFunc(order, func(a, b int) int {
			if c := cmp.Compare(rates[id(a)], rates[id(b)]); c != 0 {
				return c
			}
			return a - b
		})
		rt := order[:min(max(int(info.FreeBeforeMHz/cth), 0), len(order))]
		for _, j := range rt {
			selected[id(j)] = true
		}
		maxPending, maxRt = max(maxPending, len(order)), max(maxRt, len(rt))
		return nil
	}
	e = testEngine(t, Config{Net: testNetwork(t, stations), Rng: rand.New(rand.NewSource(5)), StepChecker: check})
	e.onBuild = func(idx int) { built[e.table.byIdx[idx].id]++ }

	arrivals := rand.New(rand.NewSource(6))
	for slot := 0; slot < slots; slot++ {
		specs := floodSpecs(arrivals, perSlot, stations)
		res, err := e.SubmitBatch(specs)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range res.IDs {
			rates[id] = specs[i].Outcomes[0].RateMBs
		}
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.metrics.SlotErrors.Load(); n != 0 {
		t.Fatalf("%d slot errors", n)
	}
	if maxPending < 5*maxRt || len(selected) == 0 {
		t.Fatalf("want pending far above R_t: at most %d pending and %d in R_t (%d selected)", maxPending, maxRt, len(selected))
	}
	for id, n := range built {
		if !selected[id] || n != 1 {
			t.Fatalf("request %d built %d times, selected by R_t: %v", id, n, selected[id])
		}
	}
	if len(built) != len(selected) {
		t.Fatalf("built %d requests, R_t selected %d", len(built), len(selected))
	}
	t.Logf("%d of %d requests built; pending up to %d, R_t up to %d", len(built), len(rates), maxPending, maxRt)
}

// TestCheckpointWithUnbuiltPendingResumes: a checkpoint taken while most
// pending requests are keys the planner never built restores every
// pending request as a key again, and the restored engine then decides
// exactly as the uninterrupted one: slot for slot the same admissions and
// reward, and the same record for every request.
func TestCheckpointWithUnbuiltPendingResumes(t *testing.T) {
	const stations, perSlot = 4, 60
	path := filepath.Join(t.TempDir(), "arserved.ckpt")
	var dec1, dec2 []string
	observer := func(dec *[]string) func(int, []uint64, float64) {
		return func(slot int, admitted []uint64, reward float64) {
			*dec = append(*dec, fmt.Sprintf("slot %d admitted %v reward %v", slot, admitted, reward))
		}
	}
	rng := rand.New(rand.NewSource(42))
	cfg := Config{Net: testNetwork(t, stations), Rng: rng, DecisionObserver: observer(&dec1)}
	e1 := testEngine(t, cfg)
	arrivals := rand.New(rand.NewSource(8))
	for slot := 0; slot < 12; slot++ {
		if _, err := e1.SubmitBatch(floodSpecs(arrivals, perSlot, stations)); err != nil {
			t.Fatal(err)
		}
		if err := e1.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	unbuilt, builtPending := 0, 0
	for _, j := range e1.pending {
		if e1.planner.Requests()[j] == nil {
			unbuilt++
		} else {
			builtPending++
		}
	}
	if unbuilt < 5*max(builtPending, 1) {
		t.Fatalf("want mostly unbuilt pending requests at the kill point: %d unbuilt, %d built", unbuilt, builtPending)
	}

	cfg.Restore = snapshotViaDisk(t, e1, path)
	// A request pending at the kill point keeps its whole record; one in
	// service is restored as a stream, so only its state is compared.
	var ids []uint64
	running := map[uint64]bool{}
	for _, cr := range cfg.Restore.Requests {
		ids = append(ids, cr.ExternalID)
		running[cr.ExternalID] = cr.Running
	}
	cfg.Rng, cfg.DecisionObserver = rand.New(rand.NewSource(43)), observer(&dec2)
	rng.Seed(43)
	e2 := testEngine(t, cfg)
	for _, j := range e2.pending {
		if e2.planner.Requests()[j] != nil {
			t.Fatalf("restored pending request %d is built before any slot selected it", j)
		}
	}
	dec1 = dec1[:0]
	for slot := 0; slot < 15; slot++ {
		specs := floodSpecs(arrivals, perSlot, stations)
		r1, err1 := e1.SubmitBatch(specs)
		r2, err2 := e2.SubmitBatch(specs)
		if err1 != nil || err2 != nil || !slices.Equal(r1.IDs, r2.IDs) {
			t.Fatalf("slot %d: ids %v (%v), restored %v (%v)", slot, r1.IDs, err1, r2.IDs, err2)
		}
		ids = append(ids, r1.IDs...)
		if err := e1.Tick(); err != nil {
			t.Fatal(err)
		}
		if err := e2.Tick(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(dec1, dec2) {
			t.Fatalf("slot %d: restored engine decided\n  %v\nuninterrupted\n  %v", slot, dec2, dec1)
		}
	}
	admitted := 0
	for _, id := range ids {
		a, ok1, _ := e1.Status(id)
		b, ok2, _ := e2.Status(id)
		if running[id] {
			a, b = RequestRecord{State: a.State}, RequestRecord{State: b.State}
		}
		if !ok1 || !ok2 || a != b {
			t.Fatalf("request %d: restored %+v (held %v), uninterrupted %+v (held %v)", id, b, ok2, a, ok1)
		}
		if a.State == StateServing || a.State == StateCompleted {
			admitted++
		}
	}
	if admitted == 0 || len(dec1) != 15 {
		t.Fatalf("want admissions after the restore: %d admitted over %d decided slots", admitted, len(dec1))
	}
	t.Logf("killed with %d unbuilt and %d built pending requests; %d of %d compared requests admitted", unbuilt, builtPending, admitted, len(ids))
}

// FuzzSpecBuilds: every spec checkSpec accepts builds, and builds the
// request its key describes. Its distribution's expected rate is the
// key's bit for bit, and the whole request is what materializing it in
// one go gives. The fuzzer draws up to three outcomes (rescaled to unit
// mass when norm is set, so most draws pass the mass rule) and up to two
// tasks.
func FuzzSpecBuilds(f *testing.F) {
	f.Add(1, 0.0, 0, uint8(0), 40.0, 1.0, 500.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, false, uint8(0), 0.0)
	f.Add(0, 150.0, 3, uint8(3), 50.0, 0.2, 100.0, 30.0, 0.5, 200.0, 50.0, 0.3, 0.0, true, uint8(2), 12.5)
	f.Add(3, 200.0, 1, uint8(2), 40.0, 0.0, 300.0, 40.0, 1.0, 100.0, 0.0, 0.0, 0.0, false, uint8(1), 0.0)
	f.Add(2, 0.0, 0, uint8(0), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, false, uint8(0), 0.0)
	// Unsorted, with a duplicate rate: summed unmerged, in the list's order,
	// the rate is 45.10869565217392; the distribution's is 45.108695652173914.
	f.Add(0, 150.0, 3, uint8(3), 50.0, 1.2444444444444445, 100.0, 30.0, 0.5, 200.0, 50.0, 0.3, 23.0, true, uint8(2), 12.5)
	net, err := mec.RandomNetwork(4, 3000, 3600, rand.New(rand.NewSource(11)))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, access int, deadline float64, dur int, nOut uint8,
		r1, p1, w1, r2, p2, w2, r3, p3, w3 float64, norm bool, nTasks uint8, work float64) {
		spec := RequestSpec{AccessStation: access, DeadlineMS: deadline, DurationSlots: dur}
		outs := []OutcomeSpec{{r1, p1, w1}, {r2, p2, w2}, {r3, p3, w3}}[:nOut%4]
		if norm {
			mass := 0.0
			for _, o := range outs {
				mass += o.Prob
			}
			for i := range outs {
				outs[i].Prob /= mass
			}
		}
		spec.Outcomes = outs
		for k := 0; k < int(nTasks%3); k++ {
			spec.Tasks = append(spec.Tasks, TaskSpec{Name: "t", OutputKb: 10, WorkMS: work * float64(k+1)})
		}
		if ValidateSpec(net, spec) != nil {
			return
		}
		keyed, whole := spec, spec
		k, err := specKey(net, validationRng, 0, &keyed)
		if err != nil {
			t.Fatalf("specKey refused a spec checkSpec accepts: %v", err)
		}
		var arena dist.Arena
		r := buildSpec(new(mec.Request), &arena, k, &keyed)
		if err := r.Validate(); err != nil {
			t.Fatalf("built request invalid: %v", err)
		}
		if math.Float64bits(r.ExpectedRate()) != math.Float64bits(k.ExpectedRate) {
			t.Fatalf("built expected rate %v, key %v", r.ExpectedRate(), k.ExpectedRate)
		}
		want, err := materializeSpec(net, validationRng, &whole)
		if err != nil {
			t.Fatal(err)
		}
		r.AccessStation = k.AccessStation
		if !slices.Equal(r.Dist.Outcomes(), want.Dist.Outcomes()) || r.DeadlineMS != want.DeadlineMS ||
			r.DurationSlots != want.DurationSlots || !slices.Equal(r.Tasks, want.Tasks) || r.AccessStation != want.AccessStation {
			t.Fatalf("built %+v, materialized %+v", r, want)
		}
	})
}
