package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"mecoffload/internal/bandit"
	"mecoffload/internal/core"
	"mecoffload/internal/oracle"
	"mecoffload/internal/sim"
)

// TestConcurrentSubmitTickCheckpoint interleaves every public engine
// entry point from concurrent goroutines — single and batched
// submissions, manual ticks (with a compaction every few of them),
// checkpoint snapshots written to disk, status polls, and gauge scrapes
// — then drains: every id is handed out once and every request settles. Run
// under -race in CI, this covers the request table's lock discipline
// (table.go), the metrics counters, and the planner and door locks.
func TestConcurrentSubmitTickCheckpoint(t *testing.T) {
	ckptPath := filepath.Join(t.TempDir(), "state.json")
	e := testEngine(t, Config{
		Net:          testNetwork(t, 6),
		Rng:          rand.New(rand.NewSource(7)),
		CompactAfter: 8,
		StepChecker:  oracle.EngineChecker(),
	})

	const (
		submitters = 4
		perWorker  = 25
		batches    = 20
		perBatch   = 5
		ticks      = 40
		total      = submitters*perWorker + batches*perBatch
	)
	var wg sync.WaitGroup
	ids := make(chan uint64, total)
	allIDs := make(chan uint64, total)
	wg.Add(1)
	go func() {
		defer wg.Done()
		specs := make([]RequestSpec, perBatch)
		for b := 0; b < batches; b++ {
			for i := range specs {
				specs[i] = RequestSpec{AccessStation: (b + i) % e.cfg.Net.NumStations(), DurationSlots: 2}
			}
			res, err := e.SubmitBatch(specs)
			for errors.Is(err, ErrSaturated) {
				runtime.Gosched()
				res, err = e.SubmitBatch(specs)
			}
			if err != nil {
				t.Errorf("batch %d: %v", b, err)
				return
			}
			for _, id := range res.IDs {
				allIDs <- id
			}
		}
	}()
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id, _, err := e.Submit(RequestSpec{
					AccessStation: (w + i) % e.cfg.Net.NumStations(),
					DurationSlots: 2 + i%3,
				})
				if err != nil {
					t.Errorf("worker %d submit %d: %v", w, i, err)
					return
				}
				ids <- id
				allIDs <- id
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < ticks; i++ {
			if err := e.Tick(); err != nil && !errors.Is(err, ErrStopped) {
				t.Errorf("tick %d: %v", i, err)
				return
			}
			if i%10 == 9 {
				snap, err := e.Snapshot()
				if err == nil {
					err = WriteCheckpoint(ckptPath, snap)
				}
				if err != nil && !errors.Is(err, ErrStopped) {
					t.Errorf("checkpoint at tick %d: %v", i, err)
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			select {
			case id := <-ids:
				if _, ok, err := e.Status(id); err != nil || !ok {
					t.Errorf("status %d: ok=%v err=%v", id, ok, err)
					return
				}
			default:
			}
			for _, g := range e.Gauges() {
				if g.UsedMHz < 0 || g.UsedMHz > g.CapacityMHz+1e-6 {
					t.Errorf("gauge for station %d out of range: %+v", g.Station, g)
					return
				}
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	// Drain the backlog: every submitted request must settle.
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	for i := 0; e.Alive(); i++ {
		if i > 10000 {
			t.Fatal("drain did not settle within 10000 ticks")
		}
		if err := e.Tick(); err != nil {
			if errors.Is(err, ErrStopped) {
				break
			}
			t.Fatal(err)
		}
	}
	close(allIDs)
	seen := make(map[uint64]bool, total)
	for id := range allIDs {
		if seen[id] {
			t.Fatalf("external id %d handed out twice", id)
		}
		seen[id] = true
	}
	m := e.Metrics()
	if got := m.Submitted.Load(); got != total {
		t.Fatalf("submitted %d, want %d", got, total)
	}
	if got := m.BatchRequests.Load(); got != batches*perBatch {
		t.Fatalf("batch requests counter %d, want %d", got, batches*perBatch)
	}
	if m.SlotErrors.Load() != 0 {
		t.Fatalf("%d slot errors during a healthy run", m.SlotErrors.Load())
	}
	settled := m.Served.Load() + m.Evicted.Load() + m.Expired.Load() + m.Rejected.Load()
	if settled != total {
		t.Fatalf("settled %d of %d submitted", settled, total)
	}
}

// TestOracleEnvInstallsChecker: MEC_ORACLE=1 must install the oracle's
// invariant checker on a fresh engine; an explicit checker wins; other
// values leave the hook empty.
func TestOracleEnvInstallsChecker(t *testing.T) {
	build := func(t *testing.T, cfg Config) *Engine {
		cfg.Net = testNetwork(t, 3)
		cfg.Rng = rand.New(rand.NewSource(1))
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	t.Run("on", func(t *testing.T) {
		t.Setenv("MEC_ORACLE", "1")
		if e := build(t, Config{}); e.cfg.StepChecker == nil {
			t.Fatal("MEC_ORACLE=1 did not install the oracle checker")
		}
	})
	t.Run("off", func(t *testing.T) {
		t.Setenv("MEC_ORACLE", "0")
		if e := build(t, Config{}); e.cfg.StepChecker != nil {
			t.Fatal("MEC_ORACLE=0 installed a checker")
		}
	})
	t.Run("explicit wins", func(t *testing.T) {
		t.Setenv("MEC_ORACLE", "")
		called := false
		own := func(*sim.Engine, *core.Result, sim.SlotReport, sim.StepInfo) error {
			called = true
			return nil
		}
		e := build(t, Config{StepChecker: own})
		e.Start()
		defer func() { _ = e.Stop() }()
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
		if !called {
			t.Fatal("explicit StepChecker was not invoked")
		}
	})
}

// TestFailingCheckerCountsSlotErrors: a violated invariant must not crash
// the daemon — the slot is aborted, SlotErrors increments, and the engine
// keeps serving subsequent ticks.
func TestFailingCheckerCountsSlotErrors(t *testing.T) {
	fail := func(*sim.Engine, *core.Result, sim.SlotReport, sim.StepInfo) error {
		return fmt.Errorf("synthetic invariant violation")
	}
	e := testEngine(t, Config{StepChecker: fail})
	submitN(t, e, 3)
	for i := 0; i < 4; i++ {
		if err := e.Tick(); err != nil {
			t.Fatalf("tick %d returned %v; checker failures must stay inside the slot", i, err)
		}
	}
	m := e.Metrics()
	if got := m.SlotErrors.Load(); got != 4 {
		t.Fatalf("SlotErrors %d after 4 failing ticks, want 4", got)
	}
	if !e.Alive() && m.Ticks.Load() != 4 {
		t.Fatalf("engine stopped ticking after checker failures (ticks %d)", m.Ticks.Load())
	}
}

// TestBanditSnapshotWhileTicking: BanditSnapshot takes the planner lock, so
// reading the learner while another goroutine ticks it is safe (this test
// runs under -race in CI).
func TestBanditSnapshotWhileTicking(t *testing.T) {
	e := testEngine(t, Config{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 40; i++ {
			for k := 0; k < 2; k++ {
				if _, _, err := e.Submit(RequestSpec{AccessStation: (i + k) % 4, DurationSlots: 2}); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
			if err := e.Tick(); err != nil {
				t.Errorf("tick %d: %v", i, err)
				return
			}
		}
	}()
	var last *bandit.LipschitzSnapshot
	for ticking := true; ticking; {
		select {
		case <-done:
			ticking = false
		default:
		}
		snap, err := e.BanditSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		last = snap
	}
	if last.Policy.T == 0 {
		t.Fatal("the learner never moved while it was snapshotted")
	}
}
