package cluster_test

// Router edge cases: requests whose candidate set vanishes after
// partitioning, the all-candidates-on-one-shard fast path, and
// cross-partition handoffs racing concurrent submissions, status polls and
// a drain (exercised under -race in CI's race job).

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"mecoffload/internal/cluster"
	"mecoffload/internal/graph"
	"mecoffload/internal/mec"
	"mecoffload/internal/rnd"
	"mecoffload/internal/serve"
	"mecoffload/internal/sim"
	"mecoffload/internal/topology"
)

// bridgedNetwork is islandNetwork plus one backhaul edge between
// consecutive islands, collapsing everything into a single component:
// candidate sets span the per-island partition, which is what the
// spanning home-shard rule exists for.
func bridgedNetwork(t testing.TB, islands, per int) *mec.Network {
	t.Helper()
	n := islands * per
	g := graph.New(n)
	nodes := make([]topology.Node, n)
	stations := make([]mec.BaseStation, n)
	for i := 0; i < n; i++ {
		nodes[i] = topology.Node{X: float64(i%per) * 0.01, Y: float64(i/per) * 0.01}
		stations[i] = mec.BaseStation{CapacityMHz: 3200, SpeedFactor: 1}
	}
	for isl := 0; isl < islands; isl++ {
		base := isl * per
		for k := 1; k < per; k++ {
			if _, err := g.AddEdge(base+k-1, base+k, 1); err != nil {
				t.Fatal(err)
			}
		}
		if isl > 0 {
			if _, err := g.AddEdge(isl*per-1, isl*per, 1); err != nil {
				t.Fatal(err)
			}
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

// TestRouterNoCandidate: a spec whose demand cannot fit any station has
// an empty candidate set; the router must still home it — at the access
// station's owner — where it expires exactly as it would in a single
// engine, rather than erroring or landing on shard 0 by accident.
func TestRouterNoCandidate(t *testing.T) {
	net := islandNetwork(t, 2, 2)
	c, err := cluster.New(parityConfig(net, 2))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer func() { _ = c.Stop() }()

	// 1e6 MB/s needs 2e7 MHz of slot capacity: infeasible everywhere.
	id, _, err := c.Submit(serve.RequestSpec{
		AccessStation: 2, // island 1 -> shard 1
		DurationSlots: 1,
		Outcomes:      []serve.OutcomeSpec{{RateMBs: 1e6, Prob: 1, Reward: 100}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.RouterStats().NoCandidate; got != 1 {
		t.Fatalf("NoCandidate = %d, want 1", got)
	}
	rec, ok, err := c.Status(id)
	if err != nil || !ok {
		t.Fatalf("status: ok=%v err=%v", ok, err)
	}
	if rec.State != serve.StatePending {
		t.Fatalf("state %q, want pending", rec.State)
	}
	// Default deadline is 4 slots; the request must expire, not linger.
	for i := 0; i < 8; i++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	rec, ok, err = c.Status(id)
	if err != nil || !ok {
		t.Fatalf("post-tick status: ok=%v err=%v", ok, err)
	}
	if rec.State != serve.StateExpired {
		t.Fatalf("state %q, want expired", rec.State)
	}
}

// TestRouterFastPath: island-confined candidates take the single-owner
// fast path and resolve on the owning shard with the global id intact.
func TestRouterFastPath(t *testing.T) {
	net := islandNetwork(t, 4, 2)
	c, err := cluster.New(parityConfig(net, 4))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer func() { _ = c.Stop() }()

	for isl := 0; isl < 4; isl++ {
		id, _, err := c.Submit(serve.RequestSpec{
			AccessStation: isl*2 + 1,
			DurationSlots: 1,
			Outcomes:      []serve.OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: 100}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(isl); id != want {
			t.Fatalf("global id %d, want dense ordinal %d", id, want)
		}
		rec, ok, err := c.Status(id)
		if err != nil || !ok {
			t.Fatalf("island %d: status ok=%v err=%v", isl, ok, err)
		}
		if rec.ID != id {
			t.Fatalf("island %d: record id %d, want %d", isl, rec.ID, id)
		}
	}
	rs := c.RouterStats()
	if rs.FastPath != 4 || rs.Spanning != 0 || rs.NoCandidate != 0 {
		t.Fatalf("stats = %+v, want 4 fast-path routes", rs)
	}
}

// TestRouterSpanningHome pins the home-shard rule on bridged islands, one
// shard per island. A request whose candidates span shards homes on its
// access station's owner when that shard owns one of them, else on the
// owner of its smallest candidate; one without candidates homes on the
// access station's owner; one whose candidates all sit on one shard homes
// there. A full outage (capacity scale 0) takes a station out of every
// candidate set, which is how a case leaves a shard without candidates.
func TestRouterSpanningHome(t *testing.T) {
	for _, tc := range []struct {
		name    string
		islands int
		down    []int // stations in full outage
		access  int
		rateMBs float64
		want    int                 // home shard
		stats   cluster.RouterStats // the route's counter
	}{
		{"spanning, access owner owns a candidate", 2, nil, 3, 40, 1,
			cluster.RouterStats{Spanning: 1, Routed: 1}},
		{"spanning, access owner owns none", 3, []int{4, 5}, 5, 40, 0,
			cluster.RouterStats{Spanning: 1, Routed: 1}},
		// 1e6 MB/s needs 2e7 MHz of slot capacity: infeasible everywhere.
		{"no candidate", 2, nil, 3, 1e6, 1,
			cluster.RouterStats{NoCandidate: 1, Routed: 1}},
		{"every candidate on one shard", 2, []int{0, 1}, 1, 40, 1,
			cluster.RouterStats{FastPath: 1, Routed: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := bridgedNetwork(t, tc.islands, 2)
			for _, st := range tc.down {
				if err := net.SetCapacityScale(st, 0); err != nil {
					t.Fatal(err)
				}
			}
			c, err := cluster.New(parityConfig(net, tc.islands))
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			defer func() { _ = c.Stop() }()

			id, _, err := c.Submit(serve.RequestSpec{
				AccessStation: tc.access,
				DurationSlots: 1,
				Outcomes:      []serve.OutcomeSpec{{RateMBs: tc.rateMBs, Prob: 1, Reward: 100}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if rs := c.RouterStats(); rs != tc.stats {
				t.Fatalf("stats = %+v, want %+v", rs, tc.stats)
			}
			if shard, ok := c.ShardOf(id); !ok || shard != tc.want {
				t.Fatalf("homed on shard %d (known %v), want shard %d", shard, ok, tc.want)
			}
			if _, ok, err := c.Status(id); err != nil || !ok {
				t.Fatalf("status: ok=%v err=%v", ok, err)
			}
			if err := tickUntilSettled(c, id, 8); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRouterHomesAtAccessOwner: on a connected 20-station mesh split into
// two index chunks, routing is a pure function of the spec; a request with
// candidates homes on its access station's owner exactly when that shard
// owns one of them; and a spanning request homed there keeps its own
// access station, so the home shard's nearest-station stand-in does not
// fire at intake. Outage rounds take whole chunks or random stations out
// of the candidate sets, so both sides of "exactly when" occur.
func TestRouterHomesAtAccessOwner(t *testing.T) {
	const stations = 20
	net, err := mec.RandomNetwork(stations, 3000, 3600, rnd.New(42, "topology"))
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j < stations; j++ {
		if math.IsInf(net.OneWayDelayMS(0, j), 1) {
			t.Fatalf("station %d is unreachable from station 0: want a connected mesh", j)
		}
	}
	parts, err := cluster.Partition(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	owner := make([]int, stations)
	for k, part := range parts {
		for _, st := range part {
			owner[st] = k
		}
	}
	c, err := cluster.New(parityConfig(net, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Stop() }()

	rng := rand.New(rand.NewSource(1))
	outages := [][]int{nil, parts[0], parts[1], nil}
	for st := 0; st < stations; st++ {
		if rng.Intn(3) == 0 {
			outages[3] = append(outages[3], st)
		}
	}
	var atAccess, elsewhere, spanning int
	for _, down := range outages {
		net.ResetCapacityScales()
		for _, st := range down {
			if err := net.SetCapacityScale(st, 0); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 100; i++ {
			spec := serve.RequestSpec{AccessStation: rng.Intn(stations), DurationSlots: 2 + rng.Intn(10)}
			home, span, access, err := c.Home(spec)
			if err != nil {
				t.Fatal(err)
			}
			if again, _, _, err := c.Home(spec); err != nil || again != home {
				t.Fatalf("%+v routed to shard %d, then to %d (%v)", spec, home, again, err)
			}
			cands, err := serve.SpecCandidates(net, spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(cands) == 0 {
				continue
			}
			accessOwner := owner[spec.AccessStation]
			ownsOne := slices.ContainsFunc(cands, func(st int) bool { return owner[st] == accessOwner })
			if (home == accessOwner) != ownsOne {
				t.Fatalf("%+v (down %v) homed on shard %d; access owner %d owns a candidate: %v (candidates %v)",
					spec, down, home, accessOwner, ownsOne, cands)
			}
			if home == accessOwner {
				atAccess++
			} else {
				elsewhere++
			}
			if span {
				spanning++
				if home == accessOwner && access != spec.AccessStation {
					t.Fatalf("%+v homed at its access owner takes station %d for its access station", spec, access)
				}
			}
		}
	}
	t.Logf("homed at the access owner %d, elsewhere %d; spanning %d", atAccess, elsewhere, spanning)
	if atAccess == 0 || elsewhere == 0 || spanning == 0 {
		t.Fatalf("homed at the access owner %d, elsewhere %d, spanning %d: want all three", atAccess, elsewhere, spanning)
	}
}

func tickUntilSettled(c *cluster.Cluster, id uint64, max int) error {
	for i := 0; i < max; i++ {
		rec, ok, err := c.Status(id)
		if err != nil {
			return err
		}
		if ok && rec.State != serve.StatePending {
			return nil
		}
		if err := c.Tick(); err != nil {
			return err
		}
	}
	rec, _, _ := c.Status(id)
	return errors.New("request " + rec.State + " never settled")
}

// TestMigrationRace floods a bridged 2-shard cluster from concurrent
// submitters and status pollers while the clock ticks through a drift
// script whose cross-partition handovers move station 1's pending requests
// to station 5 and back every other slot: each handoff's extract and
// re-submit races intake, admission and lookups. The invariant is that no
// accepted request is ever lost — every global id resolves to a terminal
// record after the drain. Run under -race in CI.
func TestMigrationRace(t *testing.T) {
	net := bridgedNetwork(t, 2, 4)
	cfg := parityConfig(net, 2)
	cfg.Drift = &sim.Drift{}
	for slot := 0; slot < 400; slot += 2 {
		h := sim.Handover{Slot: slot, From: 1, To: 5}
		if slot%4 == 2 {
			h.From, h.To = 5, 1
		}
		cfg.Drift.Handovers = append(cfg.Drift.Handovers, h)
	}
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if parts := c.PartitionTable(); !slices.Contains(parts[0], 1) || !slices.Contains(parts[1], 5) {
		t.Fatalf("partition %v: stations 1 and 5 must sit on different shards", parts)
	}
	c.Start()

	var (
		mu  sync.Mutex
		ids []uint64
		wg  sync.WaitGroup
	)
	stopPoll := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				// 800 MHz streams for 6 slots: a shard runs 16 at once, so
				// requests queue and are pending when a handover falls due.
				id, _, err := c.Submit(serve.RequestSpec{
					AccessStation: (w*3 + i) % net.NumStations(),
					DurationSlots: 6,
					DeadlineMS:    2000,
					Outcomes:      []serve.OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: float64(100 + i)}},
				})
				if err != nil {
					continue // saturation is legal; loss is not
				}
				mu.Lock()
				ids = append(ids, id)
				mu.Unlock()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if err := c.Tick(); err != nil {
				return
			}
		}
	}()
	// Status poller races lookups against the handoffs' rebinds.
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		for {
			select {
			case <-stopPoll:
				return
			default:
			}
			mu.Lock()
			snap := append([]uint64(nil), ids...)
			mu.Unlock()
			for _, id := range snap {
				if _, _, err := c.Status(id); err != nil {
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stopPoll)
	<-pollDone
	// Whichever side of the race won, the queue is still there: a few more
	// handover slots must move some of it.
	for i := 0; i < 8; i++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if in, _ := c.MigratedCounts(); in[0]+in[1] == 0 {
		t.Fatalf("no handoff committed: %+v", c.Migrations())
	}

	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	for c.Alive() {
		if err := c.Tick(); err != nil {
			if errors.Is(err, serve.ErrStopped) {
				break
			}
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		rec, ok, err := c.Status(id)
		if err != nil && !errors.Is(err, serve.ErrStopped) {
			t.Fatalf("request %d: %v", id, err)
		}
		if err != nil {
			break // engines already stopped; their tables closed with them
		}
		if !ok {
			t.Fatalf("request %d lost", id)
		}
		switch rec.State {
		case serve.StatePending, serve.StateMigrated:
			t.Fatalf("request %d stuck in state %q after drain", id, rec.State)
		}
	}
	_ = c.Stop()
	<-c.Done()
}

// TestDrainKeepsRequestsMidHandoff: a cross-partition handover that falls
// due after Drain finds shard 0 saturated with pending requests at its From
// station and shard 1 alive with capacity to spare, and must move nothing
// and journal nothing: every shard's intake is closed, so a request
// extracted for the handoff could be re-submitted nowhere, neither at the
// target nor back at the source. Every accepted request still ends
// admitted, expired or shed. The same script without the drain hands
// requests over, so the drained run is not vacuous.
func TestDrainKeepsRequestsMidHandoff(t *testing.T) {
	for _, drain := range []bool{false, true} {
		t.Run(fmt.Sprintf("drain=%v", drain), func(t *testing.T) {
			net := bridgedNetwork(t, 2, 4)
			cfg := parityConfig(net, 2)
			cfg.Drift = &sim.Drift{Handovers: []sim.Handover{{Slot: 3, From: 1, To: 5}}}
			var logMu sync.Mutex
			var logged []string
			cfg.Logf = func(format string, a ...any) {
				logMu.Lock()
				logged = append(logged, fmt.Sprintf(format, a...))
				logMu.Unlock()
			}
			c, err := cluster.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			defer func() { _ = c.Stop() }()

			// 40 requests of 800 MHz each, all arriving at station 1 and so
			// homed on its shard 0: shard 0's four 3200 MHz stations run at
			// most 16 at once, for longer than the test ticks before the
			// handover, while shard 1 stays idle.
			const accepted = 40
			for i := 0; i < accepted; i++ {
				if _, _, err := c.Submit(serve.RequestSpec{
					AccessStation: 1,
					DurationSlots: 6,
					DeadlineMS:    2000,
					Outcomes:      []serve.OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: float64(100 + i)}},
				}); err != nil {
					t.Fatal(err)
				}
			}
			for slot := 0; slot < 3; slot++ {
				if err := c.Tick(); err != nil {
					t.Fatal(err)
				}
			}
			if drain {
				if err := c.Drain(); err != nil {
					t.Fatal(err)
				}
			}
			for slot := 3; c.Alive(); slot++ { // slot 3's handover falls due
				if err := c.Tick(); err != nil && !errors.Is(err, serve.ErrStopped) {
					t.Fatal(err)
				}
				if slot == 3 && !drain {
					if err := c.Drain(); err != nil {
						t.Fatal(err)
					}
				}
				if slot > 200 {
					t.Fatal("drain did not settle in 200 slots")
				}
			}
			journal := c.Migrations()
			in, out := c.MigratedCounts()
			switch {
			case drain && (len(journal) != 0 || in[1] != 0 || out[0] != 0):
				t.Errorf("a draining cluster handed requests off: %d in, %d out, journal %+v", in[1], out[0], journal)
			case !drain && (in[1] == 0 || in[1] != out[0] || len(journal) == 0):
				t.Errorf("the handover moved %d in, %d out, journal %+v: want a committed handoff to shard 1", in[1], out[0], journal)
			}
			tot := c.Totals()
			if got := tot.Admitted + tot.Expired + tot.Shed; got != accepted || tot.Submitted != accepted {
				t.Errorf("accepted %d, but admitted %d + expired %d + shed %d = %d (submitted %d)",
					accepted, tot.Admitted, tot.Expired, tot.Shed, got, tot.Submitted)
			}
			logMu.Lock()
			defer logMu.Unlock()
			for _, line := range logged {
				if strings.Contains(line, "lost") {
					t.Errorf("logged: %s", line)
				}
			}
		})
	}
}
