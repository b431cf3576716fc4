package serve_test

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mecoffload/internal/graph"
	"mecoffload/internal/mec"
	"mecoffload/internal/serve"
	"mecoffload/internal/topology"
)

// specCandNetwork builds a 4-station chain with heterogeneous capacities
// and speeds: station 2 is too small to host even one resource slot, and
// station 3 is slow enough that tight deadlines exclude it on processing
// delay alone — the network exercises every branch of the candidate rule.
func specCandNetwork(t *testing.T) *mec.Network {
	t.Helper()
	g := graph.New(4)
	for i, w := range []float64{5, 40, 5} {
		if _, err := g.AddEdge(i, i+1, w); err != nil {
			t.Fatal(err)
		}
	}
	nodes := make([]topology.Node, 4)
	for i := range nodes {
		nodes[i] = topology.Node{X: float64(i) * 0.1}
	}
	net, err := mec.NewNetwork(mec.NetworkConfig{
		Stations: []mec.BaseStation{
			{CapacityMHz: 3200, SpeedFactor: 1},
			{CapacityMHz: 2000, SpeedFactor: 0.5},
			{CapacityMHz: 800, SpeedFactor: 1}, // below the 1000 MHz slot
			{CapacityMHz: 3600, SpeedFactor: 3},
		},
		Topo: &topology.Topology{Graph: g, Nodes: nodes},
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// hostileSpec draws a spec from the values a client should never send and
// sometimes will: negative, NaN and infinite deadlines, rates, rewards and
// probabilities, mass off 1 by a lot or by a rounding error, empty and
// negative tasks, stations outside the topology. About half come out valid.
func hostileSpec(rng *rand.Rand) serve.RequestSpec {
	odd := []float64{0, -1, -0.0, 1e-12, 1e300, math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	val := func(sane float64) float64 {
		if rng.Intn(8) == 0 {
			return odd[rng.Intn(len(odd))]
		}
		return sane
	}
	spec := serve.RequestSpec{
		AccessStation: rng.Intn(6) - 1,
		DeadlineMS:    val(float64(rng.Intn(5)) * 60),
		DurationSlots: rng.Intn(6) - 1,
	}
	for n := rng.Intn(3); n > 0; n-- {
		spec.Tasks = append(spec.Tasks, serve.TaskSpec{Name: "t", OutputKb: val(10), WorkMS: val(float64(rng.Intn(200)))})
	}
	if n := rng.Intn(5); n > 0 {
		for i := 0; i < n; i++ {
			prob := 1 / float64(n)
			switch rng.Intn(12) {
			case 0:
				prob += 1e-9 * rng.NormFloat64() // on the tolerance's edge
			case 1:
				prob = rng.Float64()
			}
			spec.Outcomes = append(spec.Outcomes, serve.OutcomeSpec{
				RateMBs: val(float64(rng.Intn(150))),
				Prob:    val(prob),
				Reward:  val(float64(rng.Intn(2)) * 100),
			})
		}
	}
	return spec
}

// candidateStations is the full-scan reference for the slot LP's candidate
// rule, evaluated at zero wait against unloaded capacities, as the router
// applied it before the allocation-free path existed (it was
// core.CandidateStations): station i is a candidate when it fits a full
// resource slot, serving r there meets the deadline, and some outcome with
// positive reward fits the station's spare capacity above that slot. Every
// station is tested, in ascending order.
func candidateStations(n *mec.Network, r *mec.Request) []int {
	slotMHz := n.SlotMHz()
	var out []int
	for i := 0; i < n.NumStations(); i++ {
		capI := n.Capacity(i)
		if capI < slotMHz || !r.DelayFeasible(n, i, 0, mec.DefaultSlotLengthMS) {
			continue
		}
		if r.Dist.RewardMassBelow((capI-slotMHz)/n.CUnit()) > 0 {
			out = append(out, i)
		}
	}
	return out
}

// TestSpecCandidatesMatchesMaterialized pins the one-rule contract: for
// every spec — defaults, custom pipelines, custom distributions, every
// validation failure, and a seeded sweep of hostile ones — ValidateSpec and
// SpecCandidates reject exactly what MaterializeSpec rejects, with the
// same ErrBadSpec error, and on the rest SpecCandidates agrees with
// materializing the spec and scanning every station (candidateStations).
func TestSpecCandidatesMatchesMaterialized(t *testing.T) {
	net := specCandNetwork(t)
	specs := []serve.RequestSpec{
		{AccessStation: 0}, // all defaults
		{AccessStation: 1}, // defaults from the middle
		{AccessStation: 3}, // defaults from the slow end
		{AccessStation: 0, DeadlineMS: 40},
		{AccessStation: 1, DeadlineMS: 70},
		{AccessStation: 0, DeadlineMS: 1000},
		{AccessStation: 0, Tasks: []serve.TaskSpec{{Name: "t", OutputKb: 10, WorkMS: 5}}},
		{AccessStation: 2, Tasks: []serve.TaskSpec{{Name: "t", OutputKb: 10, WorkMS: 120}}},
		{AccessStation: 0, Outcomes: []serve.OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: 300}}},
		// Only a rate too big for every station's spare capacity.
		{AccessStation: 0, Outcomes: []serve.OutcomeSpec{{RateMBs: 500, Prob: 1, Reward: 10}}},
		// The small rate carries zero reward mass; only the big one pays.
		{AccessStation: 0, Outcomes: []serve.OutcomeSpec{
			{RateMBs: 20, Prob: 0.5, Reward: 0},
			{RateMBs: 90, Prob: 0.5, Reward: 100},
		}},
		// Zero-probability outcome must not create candidacy.
		{AccessStation: 0, Outcomes: []serve.OutcomeSpec{
			{RateMBs: 20, Prob: 0, Reward: 100},
			{RateMBs: 90, Prob: 1, Reward: 100},
		}},
		// Duplicate rates (merged by the distribution).
		{AccessStation: 1, Outcomes: []serve.OutcomeSpec{
			{RateMBs: 40, Prob: 0.5, Reward: 0},
			{RateMBs: 40, Prob: 0.5, Reward: 200},
		}},
		// Validation failures — both paths must reject.
		{AccessStation: -1},
		{AccessStation: 4},
		{AccessStation: 0, DeadlineMS: -1},
		{AccessStation: 0, DurationSlots: -2},
		{AccessStation: 0, Tasks: []serve.TaskSpec{{WorkMS: -1}}},
		{AccessStation: 0, Outcomes: []serve.OutcomeSpec{{RateMBs: 40, Prob: -0.1, Reward: 1}}},
		{AccessStation: 0, Outcomes: []serve.OutcomeSpec{{RateMBs: 40, Prob: math.NaN(), Reward: 1}}},
		{AccessStation: 0, Outcomes: []serve.OutcomeSpec{{RateMBs: -4, Prob: 1, Reward: 1}}},
		{AccessStation: 0, Outcomes: []serve.OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: math.Inf(1)}}},
		{AccessStation: 0, Outcomes: []serve.OutcomeSpec{{RateMBs: 40, Prob: 0, Reward: 1}}},
	}
	// A fuzz-ish sweep of random specs on top of the curated ones.
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 200; k++ {
		spec := serve.RequestSpec{
			AccessStation: rng.Intn(4),
			DeadlineMS:    float64(rng.Intn(5)) * 60,
			DurationSlots: rng.Intn(4),
		}
		if rng.Intn(2) == 0 {
			spec.Tasks = []serve.TaskSpec{{Name: "t", OutputKb: 10, WorkMS: float64(rng.Intn(200))}}
		}
		if rng.Intn(2) == 0 {
			n := rng.Intn(3) + 1
			for o := 0; o < n; o++ {
				spec.Outcomes = append(spec.Outcomes, serve.OutcomeSpec{
					RateMBs: float64(rng.Intn(150)),
					Prob:    float64(rng.Intn(3)) / 2,
					Reward:  float64(rng.Intn(2)) * 100,
				})
			}
		}
		specs = append(specs, spec)
	}
	for k := 0; k < 5000; k++ {
		specs = append(specs, hostileSpec(rng))
	}

	var buf []int
	rejected := 0
	for si, spec := range specs {
		got, gotErr := serve.SpecCandidates(net, spec, buf[:0])
		buf = got[:0:cap(got)]
		var want []int
		r, wantErr := serve.MaterializeSpec(net, spec)
		if wantErr == nil {
			want = candidateStations(net, r)
		}
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("spec %d (%+v): SpecCandidates err = %v, materialized err = %v", si, spec, gotErr, wantErr)
		}
		valErr := serve.ValidateSpec(net, spec)
		if (valErr == nil) != (wantErr == nil) {
			t.Fatalf("spec %d (%+v): ValidateSpec err = %v, materialized err = %v", si, spec, valErr, wantErr)
		}
		if gotErr != nil {
			rejected++
			for _, err := range []error{gotErr, valErr, wantErr} {
				if !errors.Is(err, serve.ErrBadSpec) || err.Error() != wantErr.Error() {
					t.Fatalf("spec %d (%+v): error %q, materialized error %q, both must be ErrBadSpec", si, spec, err, wantErr)
				}
			}
			continue
		}
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(append([]int(nil), got...), want) {
			t.Fatalf("spec %d (%+v): SpecCandidates = %v, materialized rule = %v", si, spec, got, want)
		}
	}
	if rejected < len(specs)/4 || rejected > 3*len(specs)/4 {
		t.Fatalf("%d of %d specs rejected: the sweep no longer exercises both sides of the rule", rejected, len(specs))
	}
}

// TestSpecCandidatesAllocFree pins satellite-level floor: with a warm
// buffer, computing a spec's candidates allocates nothing — the property
// the cluster router's ingest fast path relies on.
func TestSpecCandidatesAllocFree(t *testing.T) {
	net := specCandNetwork(t)
	spec := serve.RequestSpec{
		AccessStation: 0,
		DurationSlots: 6,
		Outcomes:      []serve.OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: 300}},
	}
	buf := make([]int, 0, net.NumStations())
	allocs := testing.AllocsPerRun(200, func() {
		got, err := serve.SpecCandidates(net, spec, buf[:0])
		if err != nil || len(got) == 0 {
			t.Fatalf("candidates = %v, err = %v", got, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SpecCandidates allocates %v per run, want 0", allocs)
	}
}
