package cluster_test

// Mobility and non-stationarity edge cases at the cluster layer, each
// pinned by the same contract as TestClusterParity: sharding must be
// invisible in the decision stream even while the network drifts. The
// drift script runs inside shard planners (outages, same-shard
// handovers) or through the cluster clock's forced handoff (handovers
// crossing a partition edge), and every run here also carries the
// oracle's step checker, so conservation is verified on the exact slots
// where streams are evicted and queues re-pointed.

import (
	"fmt"
	"strings"
	"testing"

	"mecoffload/internal/cluster"
	"mecoffload/internal/graph"
	"mecoffload/internal/mec"
	"mecoffload/internal/oracle"
	"mecoffload/internal/serve"
	"mecoffload/internal/sim"
	"mecoffload/internal/topology"
)

// capIslands builds len(caps) disconnected two-station islands where
// island i's stations both have capacity caps[i] MHz — islandNetwork
// with per-island capacities, for traces that need one island to be the
// only feasible home of a high-rate request.
func capIslands(t testing.TB, caps []float64) *mec.Network {
	t.Helper()
	const per = 2
	n := len(caps) * per
	g := graph.New(n)
	nodes := make([]topology.Node, n)
	stations := make([]mec.BaseStation, n)
	for i := 0; i < n; i++ {
		nodes[i] = topology.Node{X: float64(i%per) * 0.01, Y: float64(i/per) * 0.1}
		stations[i] = mec.BaseStation{CapacityMHz: caps[i/per], SpeedFactor: 1}
	}
	for isl := range caps {
		if _, err := g.AddEdge(isl*per, isl*per+1, 1); err != nil {
			t.Fatal(err)
		}
	}
	net, err := mec.NewNetwork(mec.NetworkConfig{
		Stations: stations,
		Topo:     &topology.Topology{Graph: g, Nodes: nodes},
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// driftParityConfig is parityConfig plus a drift script and the
// oracle's per-slot conservation checks.
func driftParityConfig(net *mec.Network, shards int, d *sim.Drift) cluster.Config {
	cfg := parityConfig(net, shards)
	cfg.Drift = d
	cfg.StepChecker = oracle.EngineChecker()
	return cfg
}

// backgroundLine emits one routine admit-immediately request: a 40 MB/s
// single-outcome stream any 3200 MHz station serves, with an integer
// reward so cross-shard sums stay exact.
func backgroundLine(b *strings.Builder, station, slot int) {
	fmt.Fprintf(b, `{"accessStation":%d,"durationSlots":2,"outcomes":[{"rateMBs":40,"prob":1,"reward":%d}]}`+"\n",
		station, 100+(slot*37)%400)
}

// TestClusterHandoverAcrossPartition: a request whose only feasible
// stations sit in ANOTHER island is parked with an empty candidate set
// until a scripted handover moves it across the shard partition edge,
// after which it must be admitted — identically at 1, 2, and 8 shards,
// where the 1-shard run re-points it inside one planner and the
// multi-shard runs hand it off between engines.
func TestClusterHandoverAcrossPartition(t *testing.T) {
	// A station is a candidate for a single-outcome request only when
	// rate <= (cap-1000)/20, and the LP can additionally split a stream
	// across an island's stations. Island 2's 1200 MHz stations support
	// 10 MB/s each and 2400 MHz jointly — a 150 MB/s (3000 MHz) request
	// is infeasible there by any split, while one 6400 MHz station of
	// island 5 (supports 270) serves it alone.
	caps := []float64{3200, 3200, 1200, 3200, 3200, 6400, 3200, 3200}
	net := capIslands(t, caps)
	const from, to = 4, 10 // island 2 -> island 5
	drift := &sim.Drift{Handovers: []sim.Handover{{Slot: 3, From: from, To: to}}}

	// The partition edge must actually separate the endpoints, or the
	// multi-shard runs would take the same-shard path as 1 shard.
	for _, shards := range []int{2, 8} {
		parts, err := cluster.Partition(net, shards)
		if err != nil {
			t.Fatal(err)
		}
		owner := make(map[int]int)
		for k, p := range parts {
			for _, st := range p {
				owner[st] = k
			}
		}
		if owner[from] == owner[to] {
			t.Fatalf("at %d shards stations %d and %d share shard %d; the handover does not cross a partition edge",
				shards, from, to, owner[from])
		}
	}

	var b strings.Builder
	// Slot 0: the stranded 150 MB/s request (first submission => the
	// minimal global id) plus routine traffic.
	fmt.Fprintf(&b, `{"accessStation":%d,"deadlineMS":2000,"durationSlots":2,"outcomes":[{"rateMBs":150,"prob":1,"reward":777}]}`+"\n", from)
	backgroundLine(&b, 0, 0)
	b.WriteString("\n")
	// Routine traffic avoids island 2: its 1200 MHz stations cannot even
	// serve the 40 MB/s background stream, and stranded background
	// requests would ride the handover too.
	bgIslands := []int{0, 1, 3, 4, 5, 6, 7}
	for slot := 1; slot <= 15; slot++ {
		backgroundLine(&b, 2*bgIslands[slot%len(bgIslands)], slot)
		b.WriteString("\n")
	}
	for i := 0; i < 8; i++ {
		b.WriteString("\n")
	}
	trace := b.String()

	err := oracle.DiffCluster(func(shards int) (*oracle.ReplayDump, error) {
		return cluster.ReplayDump(driftParityConfig(net, shards, drift), trace)
	}, 2, 8)
	if err != nil {
		t.Fatal(err)
	}

	// Non-vacuity: the stranded request really is admitted, and only
	// after the handover slot.
	dump, err := cluster.ReplayDump(driftParityConfig(net, 8, drift), trace)
	if err != nil {
		t.Fatal(err)
	}
	minID, minSlot := -1, -1
	for _, sa := range dump.Slots {
		for _, id := range sa.Admitted {
			if minID < 0 || id < minID {
				minID, minSlot = id, sa.Slot
			}
		}
	}
	if minID != 0 {
		t.Fatalf("first-submitted request (global id 0) never admitted; min admitted id %d", minID)
	}
	if minSlot < 3 {
		t.Fatalf("stranded request admitted at slot %d, before the slot-3 handover", minSlot)
	}
}

// TestClusterOutageWithInflightStreams: a scripted outage kills a
// station that is mid-way through serving a 10-slot stream. The stream
// must be evicted (reward already credited stays credited), arrivals at
// the dark station must wait out the window, and admissions must resume
// when capacity is restored — identically across shard counts.
func TestClusterOutageWithInflightStreams(t *testing.T) {
	const islands, per = 8, 1
	net := islandNetwork(t, islands, per)
	drift := &sim.Drift{Outages: []sim.Outage{{Station: 3, Start: 4, End: 9, Scale: 0}}}

	var b strings.Builder
	// Slot 0: the long stream on the station that will go dark.
	fmt.Fprintf(&b, `{"accessStation":3,"durationSlots":10,"outcomes":[{"rateMBs":40,"prob":1,"reward":500}]}`+"\n")
	backgroundLine(&b, 0, 0)
	b.WriteString("\n")
	for slot := 1; slot <= 14; slot++ {
		if slot == 5 {
			// Mid-outage arrival at the dark station: a generous deadline
			// lets it wait for the restore instead of expiring.
			fmt.Fprintf(&b, `{"accessStation":3,"deadlineMS":10000,"durationSlots":2,"outcomes":[{"rateMBs":40,"prob":1,"reward":333}]}`+"\n")
		}
		backgroundLine(&b, (slot*3)%islands, slot)
		b.WriteString("\n")
	}
	for i := 0; i < 12; i++ {
		b.WriteString("\n")
	}
	trace := b.String()

	err := oracle.DiffCluster(func(shards int) (*oracle.ReplayDump, error) {
		return cluster.ReplayDump(driftParityConfig(net, shards, drift), trace)
	}, 2, 8)
	if err != nil {
		t.Fatal(err)
	}

	// Non-vacuity, through the serve layer: the stream's record must
	// land in StateEvicted when the outage begins, not linger serving.
	c, err := cluster.New(driftParityConfig(net, 2, drift))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer func() { _ = c.Stop() }()
	id, _, err := c.Submit(serve.RequestSpec{
		AccessStation: 3,
		DurationSlots: 10,
		Outcomes:      []serve.OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: 500}},
	})
	if err != nil {
		t.Fatal(err)
	}
	states := []string{}
	for slot := 0; slot < 6; slot++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		rec, ok, err := c.Status(id)
		if err != nil || !ok {
			t.Fatalf("status after slot %d: ok=%v err=%v", slot, ok, err)
		}
		states = append(states, rec.State)
	}
	if states[0] != serve.StateServing {
		t.Fatalf("stream not serving after slot 0: %v", states)
	}
	if got := states[len(states)-1]; got != serve.StateEvicted {
		t.Fatalf("stream not evicted by the outage: want %q, got %q (%v)",
			serve.StateEvicted, got, states)
	}
}

// TestClusterCandidateShrinksEmpty: two ways a request's candidate set
// reaches empty — born empty (no station supports its rate: the router
// must still home it deterministically and it must expire, not vanish)
// and shrunk empty mid-stream (feasible at submission, but saturated
// stations hold it pending until its deadline drains below every
// station's reach). Both decision streams must be shard-count
// invariant.
func TestClusterCandidateShrinksEmpty(t *testing.T) {
	const islands, per = 8, 2
	net := islandNetwork(t, islands, per)

	var b strings.Builder
	// Slot 0: saturate island 1 (stations 2, 3) with two 140 MB/s
	// 12-slot streams — 5600 of the island's joint 6400 MHz, leaving 800
	// MHz of spare the LP can still split.
	fmt.Fprintf(&b, `{"accessStation":2,"durationSlots":12,"outcomes":[{"rateMBs":140,"prob":1,"reward":600}]}`+"\n")
	fmt.Fprintf(&b, `{"accessStation":3,"durationSlots":12,"outcomes":[{"rateMBs":140,"prob":1,"reward":600}]}`+"\n")
	// Born-empty: 400 MB/s (8000 MHz) exceeds even a whole island's
	// joint capacity; expires without ever having a candidate.
	fmt.Fprintf(&b, `{"accessStation":0,"deadlineMS":300,"durationSlots":2,"outcomes":[{"rateMBs":400,"prob":1,"reward":900}]}`+"\n")
	b.WriteString("\n")
	// Slot 1: the shrink case — 80 MB/s (1600 MHz) fits an unloaded
	// island-1 station but not the saturated island's 800 MHz of spare,
	// and its 350 ms deadline drains before the saturating streams
	// release at slot 12.
	fmt.Fprintf(&b, `{"accessStation":2,"deadlineMS":350,"durationSlots":2,"outcomes":[{"rateMBs":80,"prob":1,"reward":444}]}`+"\n")
	b.WriteString("\n")
	for slot := 2; slot <= 14; slot++ {
		backgroundLine(&b, 2*(2+slot%6), slot) // islands 2..7
		b.WriteString("\n")
	}
	for i := 0; i < 12; i++ {
		b.WriteString("\n")
	}
	trace := b.String()

	err := oracle.DiffCluster(func(shards int) (*oracle.ReplayDump, error) {
		return cluster.ReplayDump(driftParityConfig(net, shards, nil), trace)
	}, 2, 8)
	if err != nil {
		t.Fatal(err)
	}

	// Non-vacuity at 2 shards: the born-empty request takes the
	// router's no-candidate path, and both doomed requests expire.
	c, err := cluster.New(driftParityConfig(net, 2, nil))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer func() { _ = c.Stop() }()
	sat1, _, err := c.Submit(serve.RequestSpec{
		AccessStation: 2, DurationSlots: 12,
		Outcomes: []serve.OutcomeSpec{{RateMBs: 140, Prob: 1, Reward: 600}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sat2, _, err := c.Submit(serve.RequestSpec{
		AccessStation: 3, DurationSlots: 12,
		Outcomes: []serve.OutcomeSpec{{RateMBs: 140, Prob: 1, Reward: 600}},
	})
	if err != nil {
		t.Fatal(err)
	}
	born, _, err := c.Submit(serve.RequestSpec{
		AccessStation: 0, DeadlineMS: 300, DurationSlots: 2,
		Outcomes: []serve.OutcomeSpec{{RateMBs: 400, Prob: 1, Reward: 900}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.RouterStats().NoCandidate; got == 0 {
		t.Fatal("born-empty request did not take the router's no-candidate path")
	}
	if err := c.Tick(); err != nil {
		t.Fatal(err)
	}
	shrunk, _, err := c.Submit(serve.RequestSpec{
		AccessStation: 2, DeadlineMS: 350, DurationSlots: 2,
		Outcomes: []serve.OutcomeSpec{{RateMBs: 80, Prob: 1, Reward: 444}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for slot := 1; slot < 10; slot++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []struct {
		id    uint64
		state string
		what  string
	}{
		{sat1, serve.StateServing, "saturating stream 1"},
		{sat2, serve.StateServing, "saturating stream 2"},
		{born, serve.StateExpired, "born-empty request"},
		{shrunk, serve.StateExpired, "shrunk-empty request"},
	} {
		rec, ok, err := c.Status(want.id)
		if err != nil || !ok {
			t.Fatalf("%s: status ok=%v err=%v", want.what, ok, err)
		}
		if rec.State != want.state {
			t.Fatalf("%s: state %q, want %q", want.what, rec.State, want.state)
		}
	}
}

// TestTotalsCountHandoffsOnceAcrossRestart: a cross-partition handover
// re-submits the request at its new shard, which that engine counts as a
// submission. Totals reports every accepted request once all the same —
// and keeps doing so after a restart, where only the manifest is left to
// say how many of the persisted submissions were the clock's own.
func TestTotalsCountHandoffsOnceAcrossRestart(t *testing.T) {
	net := capIslands(t, []float64{3200, 3200, 1200, 3200, 3200, 6400, 3200, 3200})
	const from, to = 4, 10 // island 2 -> island 5, across the 2-shard edge
	cfg := driftParityConfig(net, 2, &sim.Drift{Handovers: []sim.Handover{{Slot: 3, From: from, To: to}}})
	cfg.CheckpointPath = t.TempDir() + "/cluster.json"
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	// The stranded request of TestClusterHandoverAcrossPartition, plus one
	// routine stream per shard.
	specs := []serve.RequestSpec{
		{AccessStation: from, DeadlineMS: 2000, DurationSlots: 2, Outcomes: []serve.OutcomeSpec{{RateMBs: 150, Prob: 1, Reward: 777}}},
		{AccessStation: 0, DurationSlots: 2, Outcomes: []serve.OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: 100}}},
		{AccessStation: 14, DurationSlots: 2, Outcomes: []serve.OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: 101}}},
	}
	for _, spec := range specs {
		if _, _, err := c.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	in, _ := c.MigratedCounts()
	if in[0]+in[1] == 0 {
		t.Fatal("the handover never crossed the partition: nothing was re-submitted")
	}
	want := c.Totals()
	if want.Submitted != uint64(len(specs)) || want.Admitted != uint64(len(specs)) {
		t.Fatalf("totals %+v, want %d submitted and admitted", want, len(specs))
	}
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	r, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	defer func() { _ = r.Stop() }()
	if got := r.Totals(); got != want {
		t.Fatalf("totals after the restart %+v, want %+v", got, want)
	}
}
