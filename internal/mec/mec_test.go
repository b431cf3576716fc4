package mec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mecoffload/internal/dist"
	"mecoffload/internal/graph"
	"mecoffload/internal/topology"
)

func testTopo(t *testing.T, n int, seed int64) *topology.Topology {
	t.Helper()
	topo, err := topology.Waxman(topology.Config{N: n}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("Waxman: %v", err)
	}
	return topo
}

func testNet(t *testing.T, n int, seed int64) *Network {
	t.Helper()
	net, err := RandomNetwork(n, 3000, 3600, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("RandomNetwork: %v", err)
	}
	return net
}

func TestNewNetworkValidation(t *testing.T) {
	topo := testTopo(t, 2, 1)
	cases := []struct {
		name string
		cfg  NetworkConfig
	}{
		{"no stations", NetworkConfig{Topo: topo}},
		{"size mismatch", NetworkConfig{Stations: make([]BaseStation, 3), Topo: topo}},
		{"nil topo", NetworkConfig{Stations: []BaseStation{{CapacityMHz: 1}, {CapacityMHz: 1}}}},
		{"zero capacity", NetworkConfig{Stations: []BaseStation{{CapacityMHz: 0}, {CapacityMHz: 1}}, Topo: topo}},
		{"negative speed", NetworkConfig{
			Stations: []BaseStation{{CapacityMHz: 1, SpeedFactor: -1}, {CapacityMHz: 1}}, Topo: topo}},
		{"negative cunit", NetworkConfig{
			Stations: []BaseStation{{CapacityMHz: 1}, {CapacityMHz: 1}}, Topo: topo, CUnit: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewNetwork(tc.cfg); err == nil {
				t.Fatal("want error")
			}
		})
	}
}

func TestNetworkDefaults(t *testing.T) {
	topo := testTopo(t, 2, 2)
	net, err := NewNetwork(NetworkConfig{
		Stations: []BaseStation{{CapacityMHz: 3200}, {CapacityMHz: 1500}},
		Topo:     topo,
	})
	if err != nil {
		t.Fatal(err)
	}
	if net.SlotMHz() != DefaultSlotMHz || net.CUnit() != DefaultCUnit {
		t.Fatalf("defaults not applied: slot=%v cunit=%v", net.SlotMHz(), net.CUnit())
	}
	if got := net.RateToMHz(40); got != 800 {
		t.Fatalf("RateToMHz(40) = %v, want 800", got)
	}
	st, err := net.Station(0)
	if err != nil || st.SpeedFactor != 1 {
		t.Fatalf("station 0: %+v, %v (speed factor should default to 1)", st, err)
	}
	if _, err := net.Station(9); err == nil {
		t.Fatal("want error for station out of range")
	}
	if got := net.TotalCapacity(); got != 4700 {
		t.Fatalf("total capacity %v", got)
	}
}

func TestDelaysSymmetricAndTriangle(t *testing.T) {
	net := testNet(t, 12, 3)
	for u := 0; u < 12; u++ {
		if net.OneWayDelayMS(u, u) != 0 {
			t.Fatalf("self delay nonzero at %d", u)
		}
		for _, out := range []int{-1, 12} {
			if d := net.OneWayDelayMS(out, out); !math.IsInf(d, 1) {
				t.Fatalf("delay %d->%d, out of range both ways, = %v, want +Inf", out, out, d)
			}
			if d := net.RoundTripDelayMS(out, out); !math.IsInf(d, 1) {
				t.Fatalf("round trip %d->%d, out of range both ways, = %v, want +Inf", out, out, d)
			}
			if d := net.OneWayDelayMS(u, out); !math.IsInf(d, 1) {
				t.Fatalf("delay %d->%d to an out-of-range station = %v, want +Inf", u, out, d)
			}
			if d := net.OneWayDelayMS(out, u); !math.IsInf(d, 1) {
				t.Fatalf("delay %d->%d from an out-of-range station = %v, want +Inf", out, u, d)
			}
		}
		for v := 0; v < 12; v++ {
			duv, dvu := net.OneWayDelayMS(u, v), net.OneWayDelayMS(v, u)
			if math.Abs(duv-dvu) > 1e-9 {
				t.Fatalf("asymmetric delay (%d, %d): %v vs %v", u, v, duv, dvu)
			}
			if net.RoundTripDelayMS(u, v) != 2*duv {
				t.Fatal("round trip must be twice one way")
			}
			for w := 0; w < 12; w++ {
				if duv > net.OneWayDelayMS(u, w)+net.OneWayDelayMS(w, v)+1e-9 {
					t.Fatalf("triangle inequality violated (%d, %d, %d)", u, w, v)
				}
			}
		}
	}
}

func TestNeighborsByDistance(t *testing.T) {
	net := testNet(t, 8, 4)
	for from := 0; from < 8; from++ {
		ns := net.NeighborsByDistance(from)
		if len(ns) != 7 {
			t.Fatalf("neighbors of %d: %d entries", from, len(ns))
		}
		for i := 1; i < len(ns); i++ {
			if net.OneWayDelayMS(from, ns[i]) < net.OneWayDelayMS(from, ns[i-1])-1e-12 {
				t.Fatalf("neighbors of %d not sorted by distance", from)
			}
		}
	}
	nearest, d := net.NearestStation(0, []int{1, 2, 3})
	if nearest < 1 || nearest > 3 || d <= 0 {
		t.Fatalf("nearest = %d at %v", nearest, d)
	}
}

// TestNearestStation pins NearestStation's rule on a star (0 joined to 1,
// 2, 3 at delays 1, 3, 2) beside an isolated pair, and on a unit ring: the
// closest candidate other than "from", ties to the earlier candidate,
// "from" itself (at 0) only when no other candidate is reachable, and
// (-1, +Inf) when none is.
func TestNearestStation(t *testing.T) {
	g := graph.New(6)
	for _, e := range []graph.Edge{{U: 0, V: 1, Weight: 1}, {U: 0, V: 2, Weight: 3}, {U: 0, V: 3, Weight: 2}, {U: 4, V: 5, Weight: 1}} {
		if _, err := g.AddEdge(e.U, e.V, e.Weight); err != nil {
			t.Fatal(err)
		}
	}
	stations := make([]BaseStation, 6)
	for i := range stations {
		stations[i].CapacityMHz = 1000
	}
	net, err := NewNetwork(NetworkConfig{Stations: stations, Topo: &topology.Topology{Graph: g, Nodes: make([]topology.Node, 6)}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		from       int
		candidates []int
		want       int
		wantD      float64
	}{
		{0, []int{1, 2, 3}, 1, 1},
		{0, []int{0, 3, 2}, 3, 2},
		{2, []int{3, 1}, 1, 4},
		{1, []int{2, 3}, 3, 3},
		{0, []int{0}, 0, 0},
		{0, []int{4, 0, 5}, 0, 0},
		{0, []int{4, 5}, -1, math.Inf(1)},
		{0, nil, -1, math.Inf(1)},
	} {
		got, d := net.NearestStation(tc.from, tc.candidates)
		if got != tc.want || d != tc.wantD {
			t.Errorf("NearestStation(%d, %v) = (%d, %v), want (%d, %v)", tc.from, tc.candidates, got, d, tc.want, tc.wantD)
		}
	}
	// On a unit ring 1 and 3 both sit at delay 1 from 0.
	ring := graph.New(4)
	for i := 0; i < 4; i++ {
		if _, err := ring.AddEdge(i, (i+1)%4, 1); err != nil {
			t.Fatal(err)
		}
	}
	rnet, err := NewNetwork(NetworkConfig{Stations: stations[:4], Topo: &topology.Topology{Graph: ring, Nodes: make([]topology.Node, 4)}})
	if err != nil {
		t.Fatal(err)
	}
	for _, cands := range [][]int{{3, 1}, {1, 3}} {
		if got, d := rnet.NearestStation(0, cands); got != cands[0] || d != 1 {
			t.Errorf("ring NearestStation(0, %v) = (%d, %v), want the earlier candidate %d at 1", cands, got, d, cands[0])
		}
	}
}

// referenceNeighbors is NeighborsByDistance as it stood while it sorted on
// every call: the other stations in index order, insertion-sorted by
// delay, so equal delays keep index order.
func referenceNeighbors(n *Network, from int) []int {
	out := []int{}
	for i := range n.stations {
		if i != from {
			out = append(out, i)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && n.delay[from*len(n.stations)+out[j]] < n.delay[from*len(n.stations)+out[j-1]]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestNeighborsByDistanceMatchesSort: the order computed once per network
// is the order the per-call sort gave, for every station of RandomNetwork
// meshes of several sizes and of two topologies where most delays tie (a
// unit-weight ring and a unit-weight graph split into islands, whose
// unreachable stations all sit at +Inf). A caller appending to the shared
// slice must not reach the next station's list.
func TestNeighborsByDistanceMatchesSort(t *testing.T) {
	nets := map[string]*Network{}
	for seed := int64(1); seed <= 12; seed++ {
		nets[fmt.Sprintf("random seed %d", seed)] = testNet(t, 1+int(seed)*3, seed)
	}
	for _, tc := range []struct {
		name  string
		edges func(g *graph.Graph, n int) error
	}{
		{"ring", func(g *graph.Graph, n int) error {
			for i := 0; i < n; i++ {
				if _, err := g.AddEdge(i, (i+1)%n, 1); err != nil {
					return err
				}
			}
			return nil
		}},
		{"islands", func(g *graph.Graph, n int) error {
			for i := 0; i+1 < n; i++ {
				if i%4 != 3 {
					if _, err := g.AddEdge(i, i+1, 1); err != nil {
						return err
					}
				}
			}
			return nil
		}},
	} {
		const n = 12
		g := graph.New(n)
		if err := tc.edges(g, n); err != nil {
			t.Fatal(err)
		}
		stations := make([]BaseStation, n)
		for i := range stations {
			stations[i].CapacityMHz = 1000
		}
		net, err := NewNetwork(NetworkConfig{Stations: stations, Topo: &topology.Topology{Graph: g, Nodes: make([]topology.Node, n)}})
		if err != nil {
			t.Fatal(err)
		}
		nets[tc.name] = net
	}
	ties := 0
	for name, net := range nets {
		for from := 0; from < net.NumStations(); from++ {
			got, want := net.NeighborsByDistance(from), referenceNeighbors(net, from)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: neighbors of %d = %v, sorted per call %v", name, from, got, want)
			}
			for i := 1; i < len(want); i++ {
				if net.OneWayDelayMS(from, want[i]) == net.OneWayDelayMS(from, want[i-1]) {
					ties++
				}
			}
			if cap(got) != len(got) {
				t.Fatalf("%s: neighbors of %d have spare capacity %d: an append would overwrite the next list", name, from, cap(got)-len(got))
			}
		}
	}
	if ties < 100 {
		t.Fatalf("only %d tied neighbor pairs: the tie-breaking went unexercised", ties)
	}
}

// fullScanReach is the delay-feasibility rule as the slot path applied it
// before Reach existed: every station tested, in index order.
func fullScanReach(n *Network, r *Request, wait int, slotLenMS float64) []int {
	out := []int{}
	for i := range n.stations {
		if r.DelayFeasible(n, i, wait, slotLenMS) {
			out = append(out, i)
		}
	}
	return out
}

// reachTestNets returns the networks TestReachMatchesFullScan walks:
// RandomNetwork meshes, unit-weight islands of four (delays tie inside an
// island and are +Inf across), and a unit-weight ring with a zero-weight
// spur (a neighbour tied with the access station itself), an isolated
// station and a station whose speed factor is NaN.
func reachTestNets(t *testing.T) []*Network {
	t.Helper()
	var nets []*Network
	for seed := int64(1); seed <= 8; seed++ {
		nets = append(nets, testNet(t, 3+int(seed)*3, seed))
	}
	build := func(n int, edges [][3]float64, speed func(i int) float64) *Network {
		g := graph.New(n)
		for _, e := range edges {
			if _, err := g.AddEdge(int(e[0]), int(e[1]), e[2]); err != nil {
				t.Fatal(err)
			}
		}
		stations := make([]BaseStation, n)
		for i := range stations {
			stations[i] = BaseStation{CapacityMHz: 1000, SpeedFactor: speed(i)}
		}
		net, err := NewNetwork(NetworkConfig{Stations: stations, Topo: &topology.Topology{Graph: g, Nodes: make([]topology.Node, n)}})
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	var islands [][3]float64
	for i := 0; i+1 < 16; i++ {
		if i%4 != 3 {
			islands = append(islands, [3]float64{float64(i), float64(i + 1), 1})
		}
	}
	nets = append(nets, build(16, islands, func(i int) float64 { return 0.5 + float64(i%3)*0.5 }))
	ring := [][3]float64{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 4, 1}, {4, 5, 1}, {5, 0, 1}, {2, 6, 0}}
	nets = append(nets, build(8, ring, func(i int) float64 {
		if i == 4 {
			return math.NaN()
		}
		return 1
	}))
	return nets
}

// TestReachMatchesFullScan: AppendReach, which tests only the stations
// Network.Reach walks out from the access station, lists exactly the
// stations a scan of every station accepts, in ascending order, after
// whatever dst already held. Deadlines are drawn on the cut itself (wait
// plus a round trip, with zero processing delay, so the station at the cut
// is feasible with equality) and on Eq. (2)'s exact delay, and include
// NaN, +Inf and zero; waits run from 0 to past every deadline; work is
// zero, positive, NaN or +Inf. MinServiceDelayMS matches the smallest
// non-NaN ServiceDelayMS over every station, bit for bit.
func TestReachMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	works := []float64{0, 0, 7, 42, math.NaN(), math.Inf(1)}
	var cut, onCut, unsorted int
	for ni, net := range reachTestNets(t) {
		nS := net.NumStations()
		for trial := 0; trial < 400; trial++ {
			slotLen := []float64{DefaultSlotLengthMS, 1}[rng.Intn(2)]
			r := &Request{
				AccessStation: rng.Intn(nS),
				Tasks:         []Task{{Name: "t", WorkMS: works[rng.Intn(len(works))]}},
			}
			wait := rng.Intn(7)
			waitMS := float64(wait) * slotLen
			i := rng.Intn(nS)
			st, err := net.Station(i)
			if err != nil {
				t.Fatal(err)
			}
			switch rng.Intn(6) {
			case 0:
				r.DeadlineMS = []float64{math.NaN(), math.Inf(1), 0}[rng.Intn(3)]
			case 1:
				r.DeadlineMS = 300 * rng.Float64()
			case 2:
				r.DeadlineMS = waitMS + (net.RoundTripDelayMS(r.AccessStation, i) + r.ProcDelayMS(st))
			default:
				r.DeadlineMS = waitMS + net.RoundTripDelayMS(r.AccessStation, i)
			}
			prefix := []int{-1, -2}
			got := r.AppendReach(append([]int(nil), prefix...), net, wait, slotLen)
			want := append(prefix, fullScanReach(net, r, wait, slotLen)...)
			if !slices.Equal(got, want) {
				t.Fatalf("net %d access %d wait %d×%v deadline %v work %v: AppendReach %v, full scan %v",
					ni, r.AccessStation, wait, slotLen, r.DeadlineMS, r.Tasks[0].WorkMS, got[2:], want[2:])
			}
			minS := math.NaN()
			for i := 0; i < nS; i++ {
				if s := net.ServiceDelayMS(r.AccessStation, r.Tasks, i); s < minS || minS != minS {
					minS = s
				}
			}
			if got := net.MinServiceDelayMS(r.AccessStation, r.Tasks); math.Float64bits(got) != math.Float64bits(minS) && !(got != got && minS != minS) {
				t.Fatalf("net %d access %d work %v: MinServiceDelayMS %v, full scan %v", ni, r.AccessStation, r.Tasks[0].WorkMS, got, minS)
			}
			reach := net.Reach(r.AccessStation, waitMS, r.DeadlineMS)
			if len(reach) < nS && len(want) > 2 {
				cut++
			}
			if cap(reach) != len(reach) {
				t.Fatalf("net %d: Reach from %d has spare capacity: an append would overwrite its order", ni, r.AccessStation)
			}
			if r.Tasks[0].WorkMS == 0 && slices.Contains(want[2:], i) && waitMS+net.RoundTripDelayMS(r.AccessStation, i) == r.DeadlineMS {
				onCut++
			}
			if len(reach) > 2 && !slices.IsSorted(reach) && len(want) > 3 {
				unsorted++
			}
		}
	}
	if cut < 800 || onCut < 600 || unsorted < 1000 {
		t.Fatalf("coverage: %d cut walks, %d feasible stations exactly on the cut, %d walks out of index order", cut, onCut, unsorted)
	}
}

func mkRequest(t *testing.T, id int) *Request {
	t.Helper()
	d, err := dist.NewRateReward([]dist.Outcome{
		{Rate: 30, Prob: 0.5, Reward: 400},
		{Rate: 50, Prob: 0.5, Reward: 600},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &Request{
		ID:            id,
		AccessStation: 0,
		Tasks: []Task{
			{Name: "render", OutputKb: 100, WorkMS: 30},
			{Name: "track", OutputKb: 64, WorkMS: 12},
		},
		DeadlineMS: 200,
		Dist:       d,
	}
}

func TestRequestValidate(t *testing.T) {
	r := mkRequest(t, 0)
	if err := r.Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	bad := *r
	bad.Tasks = nil
	if err := bad.Validate(); err == nil {
		t.Error("want error for no tasks")
	}
	bad = *r
	bad.Tasks = []Task{{WorkMS: -1}}
	if err := bad.Validate(); err == nil {
		t.Error("want error for negative work")
	}
	bad = *r
	bad.Dist = nil
	if err := bad.Validate(); err == nil {
		t.Error("want error for nil distribution")
	}
	bad = *r
	bad.DeadlineMS = 0
	if err := bad.Validate(); err == nil {
		t.Error("want error for zero deadline")
	}
}

func TestRealizeOnce(t *testing.T) {
	r := mkRequest(t, 1)
	if _, ok := r.Realized(); ok {
		t.Fatal("fresh request should not be realized")
	}
	if _, err := r.MustRealized(); err == nil {
		t.Fatal("MustRealized should fail before Realize")
	}
	rng := rand.New(rand.NewSource(5))
	first := r.Realize(rng)
	for i := 0; i < 10; i++ {
		if got := r.Realize(rng); got != first {
			t.Fatal("Realize must be idempotent")
		}
	}
	out, err := r.MustRealized()
	if err != nil || out != first {
		t.Fatalf("MustRealized = %v, %v", out, err)
	}
	r.ResetRealization()
	if _, ok := r.Realized(); ok {
		t.Fatal("ResetRealization did not clear state")
	}
}

func TestRequestDelays(t *testing.T) {
	net := testNet(t, 5, 6)
	r := mkRequest(t, 2)
	st, err := net.Station(1)
	if err != nil {
		t.Fatal(err)
	}
	wantProc := (30 + 12) * st.SpeedFactor
	if got := r.ProcDelayMS(st); math.Abs(got-wantProc) > 1e-9 {
		t.Fatalf("proc delay %v, want %v", got, wantProc)
	}
	d0, err := r.TaskProcDelayMS(0, st)
	if err != nil || math.Abs(d0-30*st.SpeedFactor) > 1e-9 {
		t.Fatalf("task 0 proc %v, %v", d0, err)
	}
	if _, err := r.TaskProcDelayMS(5, st); err == nil {
		t.Fatal("want error for task index out of range")
	}
	want := net.RoundTripDelayMS(0, 1) + wantProc
	if got := r.ServiceDelayMS(net, 1); math.Abs(got-want) > 1e-9 {
		t.Fatalf("service delay %v, want %v", got, want)
	}
	// Delay feasibility: an enormous wait breaks any deadline.
	if r.DelayFeasible(net, 1, 1000, DefaultSlotLengthMS) {
		t.Fatal("1000-slot wait should be infeasible")
	}
}

// TestTaskMHz pins the one task-share formula: work-proportional shares
// (equal ones for a pipeline with no work) within half a quantum of
// RateToMHz(rate)·w_k/W, each a multiple of Quantum, and RequestMHz their
// sum.
func TestTaskMHz(t *testing.T) {
	net := testNet(t, 3, 2)
	r := mkRequest(t, 0)
	idle := mkRequest(t, 1)
	for k := range idle.Tasks {
		idle.Tasks[k].WorkMS = 0
	}
	for _, rate := range []float64{30, 33.3, 50 / 3.0} {
		for _, req := range []*Request{r, idle} {
			sum := 0.0
			for k := range req.Tasks {
				want := net.RateToMHz(rate) / float64(len(req.Tasks))
				if w := req.WorkMS(); w > 0 {
					want = net.RateToMHz(rate) * req.Tasks[k].WorkMS / w
				}
				got := net.TaskMHz(req, k, rate)
				if math.Abs(got-want) > Quantum/2 || got != Quantize(got) {
					t.Fatalf("TaskMHz(request %d, task %d, rate %v) = %v, want %v on the 2⁻²⁰ grid", req.ID, k, rate, got, want)
				}
				sum += got
			}
			if got := net.RequestMHz(req, rate); got != sum {
				t.Fatalf("RequestMHz(request %d, rate %v) = %v, want the shares' sum %v", req.ID, rate, got, sum)
			}
		}
	}
}

func TestHoldSlots(t *testing.T) {
	r := mkRequest(t, 3)
	if r.HoldSlots() != 1 {
		t.Fatalf("default hold %d, want 1", r.HoldSlots())
	}
	r.DurationSlots = 40
	if r.HoldSlots() != 40 {
		t.Fatalf("hold %d, want 40", r.HoldSlots())
	}
	r.DurationSlots = -2
	if r.HoldSlots() != 1 {
		t.Fatalf("negative duration should clamp to 1")
	}
}

func TestCloneShallow(t *testing.T) {
	r := mkRequest(t, 4)
	r.Realize(rand.New(rand.NewSource(7)))
	c := r.CloneShallow()
	if _, ok := c.Realized(); ok {
		t.Fatal("clone must clear realization")
	}
	if c.ID != r.ID || len(c.Tasks) != len(r.Tasks) {
		t.Fatal("clone lost fields")
	}
}

func TestRandomNetworkProperties(t *testing.T) {
	net := testNet(t, 20, 8)
	if net.NumStations() != 20 {
		t.Fatalf("stations = %d", net.NumStations())
	}
	for _, st := range net.Stations() {
		if st.CapacityMHz < 3000 || st.CapacityMHz > 3600 {
			t.Fatalf("capacity %v outside [3000, 3600]", st.CapacityMHz)
		}
		if st.SpeedFactor < 0.8 || st.SpeedFactor > 1.2 {
			t.Fatalf("speed factor %v outside [0.8, 1.2]", st.SpeedFactor)
		}
	}
	// Stations() must be a copy.
	sts := net.Stations()
	sts[0].CapacityMHz = 1
	if net.Capacity(0) == 1 {
		t.Fatal("Stations leaked internal state")
	}
}
