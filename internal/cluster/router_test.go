package cluster_test

// Router edge cases: requests whose candidate set vanishes after
// partitioning, the all-candidates-on-one-shard fast path, and the
// migration sweep racing concurrent submissions and capacity changes
// (exercised under -race in CI's race job).

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mecoffload/internal/cluster"
	"mecoffload/internal/graph"
	"mecoffload/internal/mec"
	"mecoffload/internal/serve"
	"mecoffload/internal/topology"
)

// bridgedNetwork is islandNetwork plus one backhaul edge between
// consecutive islands, collapsing everything into a single component:
// candidate sets span the per-island partition, which is what the
// spanning home-shard rule and the migration sweep exist for.
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

// TestRouterSpanningHome pins the deterministic home-shard rule: when
// candidates span partitions, home is the owner of the smallest
// candidate station regardless of the access station.
func TestRouterSpanningHome(t *testing.T) {
	net := bridgedNetwork(t, 2, 2)
	c, err := cluster.New(parityConfig(net, 2))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer func() { _ = c.Stop() }()

	// Access station 3 lives on shard 1, but the bridged topology makes
	// station 0 a candidate too, so the request homes on shard 0.
	id, _, err := c.Submit(serve.RequestSpec{
		AccessStation: 3,
		DurationSlots: 1,
		Outcomes:      []serve.OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: 100}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rs := c.RouterStats()
	if rs.Spanning != 1 {
		t.Fatalf("stats = %+v, want 1 spanning route", rs)
	}
	if _, ok, err := c.Status(id); err != nil || !ok {
		t.Fatalf("status: ok=%v err=%v", ok, err)
	}
	if err := c.Tick(); err != nil {
		t.Fatal(err)
	}
	// Shard 0 (stations 0,1) must have scheduled it: its submitted
	// counter moved, shard 1's did not.
	if err := tickUntilSettled(c, id, 8); err != nil {
		t.Fatal(err)
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
// submitters while the clock ticks and the migration sweep runs every
// slot: proposals race admission-driven capacity changes and status
// polls. The invariant is that no accepted request is ever lost — every
// global id resolves to a terminal record after the drain. Run under
// -race in CI.
func TestMigrationRace(t *testing.T) {
	net := bridgedNetwork(t, 2, 4)
	cfg := parityConfig(net, 2)
	cfg.MigrationEvery = 1
	cfg.MigrationBurst = 8
	cfg.MigrationHysteresis = 0.01
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
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
				id, _, err := c.Submit(serve.RequestSpec{
					AccessStation: (w*3 + i) % net.NumStations(),
					DurationSlots: 1,
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
	// Status poller races lookups against the sweep's rebinds.
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

// TestDrainKeepsRequestsMidHandoff: a sweep slot that falls after Drain
// finds shard 0 saturated with pending spanning requests and shard 1
// alive with capacity to spare — a free-capacity gap far above the
// hysteresis — and must move nothing: every shard's intake is closed, so
// a request extracted for the handoff could be re-submitted nowhere,
// neither at the target nor back at the source. Every accepted request
// still ends admitted, expired or shed.
func TestDrainKeepsRequestsMidHandoff(t *testing.T) {
	net := bridgedNetwork(t, 2, 4)
	cfg := parityConfig(net, 2)
	cfg.MigrationEvery = 2
	cfg.MigrationBurst = 8
	cfg.MigrationHysteresis = 0.01
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

	// 40 requests of 800 MHz each, all homed on shard 0 (the owner of
	// their smallest candidate station): its four 3200 MHz stations run at
	// most 16 at once, for longer than the test ticks before the drain.
	const accepted = 40
	for i := 0; i < accepted; i++ {
		if _, _, err := c.Submit(serve.RequestSpec{
			AccessStation: i % net.NumStations(),
			DurationSlots: 6,
			DeadlineMS:    2000,
			Outcomes:      []serve.OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: float64(100 + i)}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if rs := c.RouterStats(); rs.Spanning != accepted {
		t.Fatalf("%d of %d requests span the partition; the sweep needs all of them listed", rs.Spanning, accepted)
	}
	// Slot 1 sweeps a burst over to shard 1 and slot 2 starts it there, so
	// shard 1 outlives the drain as a target and shard 0 still queues.
	for slot := 0; slot < 3; slot++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Migrations()
	if in, _ := c.MigratedCounts(); in[1] == 0 {
		t.Fatalf("no request migrated to shard 1 before the drain: %+v", before)
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	for slot := 3; c.Alive(); slot++ { // slot 3 sweeps
		if err := c.Tick(); err != nil && !errors.Is(err, serve.ErrStopped) {
			t.Fatal(err)
		}
		if slot > 200 {
			t.Fatal("drain did not settle in 200 slots")
		}
	}
	if after := c.Migrations(); len(after) != len(before) {
		t.Errorf("a draining cluster proposed migrations: %+v", after[len(before):])
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
}
