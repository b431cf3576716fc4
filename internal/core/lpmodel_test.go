package core

import (
	"math"
	"math/rand"
	"testing"

	"mecoffload/internal/dist"
	"mecoffload/internal/mec"
	"mecoffload/internal/topology"
)

// buildTestNetwork builds a two-station network with known capacities.
func buildTestNetwork(t *testing.T, caps []float64) *mec.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(81))
	topo, err := topology.Waxman(topology.Config{N: len(caps)}, rng)
	if err != nil {
		t.Fatal(err)
	}
	stations := make([]mec.BaseStation, len(caps))
	for i, c := range caps {
		stations[i] = mec.BaseStation{CapacityMHz: c, SpeedFactor: 1}
	}
	net, err := mec.NewNetwork(mec.NetworkConfig{Stations: stations, Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func twoRateRequest(t *testing.T, id int) *mec.Request {
	t.Helper()
	d, err := dist.NewRateReward([]dist.Outcome{
		{Rate: 30, Prob: 0.5, Reward: 400},
		{Rate: 50, Prob: 0.5, Reward: 700},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &mec.Request{
		ID:            id,
		AccessStation: 0,
		Tasks:         []mec.Task{{Name: "render", OutputKb: 100, WorkMS: 30}},
		DeadlineMS:    200,
		Dist:          d,
	}
}

// TestBuildLPStructure verifies Eq. (8) variable filtering and the row
// structure of constraints (9) and (10).
func TestBuildLPStructure(t *testing.T) {
	// Capacity 3200 MHz, slot 1000 MHz -> L = 3 slot indices.
	net := buildTestNetwork(t, []float64{3200, 3200})
	reqs := []*mec.Request{twoRateRequest(t, 0), twoRateRequest(t, 1)}
	m, err := buildLP(net, reqs, lpOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// ER per slot index on a 3200 MHz station (C_unit = 20):
	//   l=1: rates <= (3200-1000)/20 = 110 -> both fit, ER = 550
	//   l=2: rates <= 60  -> both fit, ER = 550
	//   l=3: rates <= 10  -> none fit, ER = 0 -> variable dropped
	wantVarsPerReq := 2 /* stations */ * 2 /* slots with ER>0 */
	for j := range reqs {
		if got := len(m.byReq[j]); got != wantVarsPerReq {
			t.Fatalf("request %d has %d variables, want %d", j, got, wantVarsPerReq)
		}
	}
	for _, sv := range m.vars {
		switch sv.slot {
		case 1, 2:
			if math.Abs(sv.er-550) > 1e-9 {
				t.Fatalf("ER at slot %d = %v, want 550", sv.slot, sv.er)
			}
		default:
			t.Fatalf("variable at slot %d should not exist", sv.slot)
		}
	}
	// Rows: 2 assignment rows, and no cap row. Each request's cap-row
	// coefficient is E[min(rho, l*C_l/C_unit)] = E[rho] = 40 on every slot
	// (l*C_l/C_unit = 50 l >= 50), so a row's two requests fill at most 80
	// of its right-hand side 2*50*l = 100 l: none can bind, none is built.
	if got := m.std.NumRows(); got != 2 {
		t.Fatalf("constraints = %d, want 2", got)
	}

	// Six requests fill 240: rows l=1 (100) and l=2 (200) can bind on
	// each station and are built, row l=3 (300) cannot.
	for j := 2; j < 6; j++ {
		reqs = append(reqs, twoRateRequest(t, j))
	}
	if m, err = buildLP(net, reqs, lpOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := m.std.NumRows(); got != 6+2*2 {
		t.Fatalf("constraints = %d, want 10", got)
	}
}

// TestBuildLPDelayFilter drops stations that violate the deadline.
func TestBuildLPDelayFilter(t *testing.T) {
	net := buildTestNetwork(t, []float64{3200, 3200})
	r := twoRateRequest(t, 0)
	r.DeadlineMS = 30.5 // only the access station (no transmission) fits
	m, err := buildLP(net, []*mec.Request{r}, lpOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range m.byReq[0] {
		if m.vars[idx].station != 0 {
			t.Fatalf("variable on station %d despite deadline filter", m.vars[idx].station)
		}
	}
	if len(m.byReq[0]) == 0 {
		t.Fatal("access station should remain feasible")
	}
}

// TestBuildLPShareCap: LP-PT's truncation lowers the occupancy
// coefficients but never below zero, and the solved objective stays a
// valid bound.
func TestBuildLPShareCap(t *testing.T) {
	net := buildTestNetwork(t, []float64{3200})
	reqs := []*mec.Request{twoRateRequest(t, 0), twoRateRequest(t, 1)}
	plain, err := buildLP(net, reqs, lpOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, plainOpt, err := plain.solve()
	if err != nil {
		t.Fatal(err)
	}
	truncated, err := buildLP(net, reqs, lpOptions{
		shareCapFor: func(int) float64 { return 5 }, // 5 MB/s share cap
	})
	if err != nil {
		t.Fatal(err)
	}
	_, truncOpt, err := truncated.solve()
	if err != nil {
		t.Fatal(err)
	}
	// Truncation loosens constraint (10) (coefficients shrink), so the
	// relaxed optimum cannot decrease.
	if truncOpt < plainOpt-1e-6 {
		t.Fatalf("share-capped LP optimum %v below plain %v", truncOpt, plainOpt)
	}
}

// TestBuildLPSlotRefinement: halving the slot size must expose residual
// fragments (capacity below one default slot) to the relaxation.
func TestBuildLPSlotRefinement(t *testing.T) {
	// 1600 MHz residual: with C_l = 1000, L = 1 and ER(l=1) covers rates
	// <= 30; with C_l = 500, L = 3 and more variables exist.
	net := buildTestNetwork(t, []float64{1600})
	reqs := []*mec.Request{twoRateRequest(t, 0)}
	coarse, err := buildLP(net, reqs, lpOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := buildLP(net, reqs, lpOptions{slotMHz: 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(fine.vars) <= len(coarse.vars) {
		t.Fatalf("refined grid should add variables: %d vs %d", len(fine.vars), len(coarse.vars))
	}
}

// TestBuildLPEmptyWhenInfeasible: no deadline-feasible placement leaves an
// empty model, which solves to a zero bound without error.
func TestBuildLPEmptyWhenInfeasible(t *testing.T) {
	net := buildTestNetwork(t, []float64{3200})
	r := twoRateRequest(t, 0)
	r.DeadlineMS = 0.001
	m, err := buildLP(net, []*mec.Request{r}, lpOptions{})
	if err != nil {
		t.Fatal(err)
	}
	y, opt, err := m.solve()
	if err != nil {
		t.Fatal(err)
	}
	if len(y) != 0 || opt != 0 {
		t.Fatalf("empty model solved to %v with %d values", opt, len(y))
	}
}

// TestVariableNamesAreInformative: the LP's columns carry no names, so
// debugging reads a column's request, station and slot off the model's
// variable list.
func TestVariableNamesAreInformative(t *testing.T) {
	net := buildTestNetwork(t, []float64{3200})
	m, err := buildLP(net, []*mec.Request{twoRateRequest(t, 0)}, lpOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.vars) == 0 {
		t.Fatal("no variables built")
	}
	// Spot check the first variable's metadata consistency.
	sv := m.vars[0]
	if sv.req != 0 || sv.station != 0 || sv.slot < 1 {
		t.Fatalf("variable metadata %+v", sv)
	}
}
