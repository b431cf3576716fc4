package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mecoffload/internal/mec"
)

func testNetwork(t *testing.T, stations int) *mec.Network {
	t.Helper()
	net, err := mec.RandomNetwork(stations, 3000, 3600, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// testEngine builds a started manual-tick engine; the cleanup stops it.
func testEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.Net == nil {
		cfg.Net = testNetwork(t, 4)
	}
	if cfg.Rng == nil {
		cfg.Rng = rand.New(rand.NewSource(42))
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	t.Cleanup(func() { _ = e.Stop() })
	return e
}

// submitN submits n default-spec requests round-robin over the stations.
func submitN(t *testing.T, e *Engine, n int) []uint64 {
	t.Helper()
	ids := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		id, _, err := e.Submit(RequestSpec{
			AccessStation: i % e.cfg.Net.NumStations(),
			DurationSlots: 3,
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	return ids
}

// TestEngineLifecycle drives submit -> tick -> serve -> depart through
// the daemon core and checks the request table tracks each transition.
func TestEngineLifecycle(t *testing.T) {
	e := testEngine(t, Config{})
	ids := submitN(t, e, 6)

	for _, id := range ids {
		rec, ok, err := e.Status(id)
		if err != nil || !ok {
			t.Fatalf("status %d: ok=%v err=%v", id, ok, err)
		}
		if rec.State != StatePending {
			t.Fatalf("request %d state %q before first tick, want pending", id, rec.State)
		}
	}

	if err := e.Tick(); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if got := m.Ticks.Load(); got != 1 {
		t.Fatalf("ticks = %d, want 1", got)
	}
	if m.Admitted.Load() == 0 {
		t.Fatal("no admissions after first tick with 6 pending requests")
	}
	serving := 0
	for _, id := range ids {
		rec, ok, _ := e.Status(id)
		if !ok {
			t.Fatalf("request %d vanished", id)
		}
		if rec.State == StateServing {
			serving++
			if rec.Station < 0 || rec.Station >= e.cfg.Net.NumStations() {
				t.Fatalf("request %d serving on station %d", id, rec.Station)
			}
		}
	}
	if serving == 0 {
		t.Fatal("no request reached serving state")
	}

	// 3-slot holds: everything departs within a handful of ticks.
	for i := 0; i < 6; i++ {
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if streams := m.ActiveStreams.Load(); streams != 0 {
		t.Fatalf("%d active streams after holds elapsed", streams)
	}
	completed := 0
	for _, id := range ids {
		rec, _, _ := e.Status(id)
		if rec.State == StateCompleted {
			completed++
			if rec.DepartSlot <= rec.DecisionSlot {
				t.Fatalf("request %d departed slot %d <= decided slot %d", id, rec.DepartSlot, rec.DecisionSlot)
			}
		}
	}
	if completed == 0 {
		t.Fatal("no request completed")
	}
	if m.Reward.Load() <= 0 {
		t.Fatal("no realized reward credited")
	}
}

// TestWarmStartHitRate pins the warm start of a re-solved component: two
// light requests a tick on a mesh that never saturates keep one component
// under the same key (its smallest station) while the occupancy the first
// pair committed changes its signature, so the second tick cannot replay
// — it re-solves, seeded from the first tick's basis. (How /metrics
// renders the hit rate is pinned on the one exposition, in
// internal/cluster.)
func TestWarmStartHitRate(t *testing.T) {
	e := testEngine(t, Config{})
	for tick := 0; tick < 2; tick++ {
		for i := 0; i < 2; i++ {
			if _, _, err := e.Submit(RequestSpec{
				AccessStation: i,
				DurationSlots: 3,
				Outcomes:      []OutcomeSpec{{RateMBs: 10, Prob: 1, Reward: 100}},
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.IncStats(); st.CleanHits != 0 || st.DirtySolves < 2 {
		t.Fatalf("component solves %+v, want the second tick re-solved, not replayed", st)
	}
	hits, misses := e.WarmStats()
	if hits == 0 {
		t.Fatalf("warm-start hits = 0 after second tick (misses = %d)", misses)
	}
}

// TestIncrementalMetrics pins the decision cache's observability on a
// default engine: after two busy slots it has counted component solves.
func TestIncrementalMetrics(t *testing.T) {
	e := testEngine(t, Config{})
	for i := 0; i < 2; i++ {
		submitN(t, e, 8)
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	st := e.IncStats()
	if st.CleanHits+st.DirtySolves == 0 {
		t.Fatal("default engine tracked no component solves")
	}
}

// TestCheckpointResume is the PR's acceptance gate: an engine killed
// after a checkpoint and rebuilt from it resumes with identical bandit
// arm statistics, the same slot clock, and the same in-flight streams.
// The checkpoint travels the way the cluster moves it: Snapshot out,
// through the on-disk encoding, Config.Restore in.
func TestCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "arserved.ckpt")
	net := testNetwork(t, 4)
	cfg := Config{Net: net}

	e1 := testEngine(t, cfg)
	for i := 0; i < 12; i++ {
		submitN(t, e1, 4)
		if err := e1.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Restore = snapshotViaDisk(t, e1, path)
	want, err := e1.BanditSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	wantStreams := e1.Metrics().ActiveStreams.Load()
	wantPending := e1.Metrics().PendingDepth.Load()
	wantSlot := e1.Metrics().CurrentSlot.Load()
	wantReward := e1.Metrics().Reward.Load()
	if wantStreams == 0 {
		t.Fatal("test wants in-flight streams at the kill point")
	}
	// Simulate kill -9: abandon e1 without any orderly shutdown. (Cleanup
	// still stops it at test end.)

	cfg.Rng = rand.New(rand.NewSource(43))
	e2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e2.Start()
	t.Cleanup(func() { _ = e2.Stop() })

	got, err := e2.BanditSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if !reflect.DeepEqual(wantJSON, gotJSON) {
		t.Fatalf("bandit statistics diverge after restart:\n  before: %s\n  after:  %s", wantJSON, gotJSON)
	}
	if got := e2.Metrics().ActiveStreams.Load(); got != wantStreams {
		t.Fatalf("restored %d active streams, want %d", got, wantStreams)
	}
	if got := e2.Metrics().PendingDepth.Load(); got != wantPending {
		t.Fatalf("restored %d pending, want %d", got, wantPending)
	}
	if got := e2.Metrics().CurrentSlot.Load(); got != wantSlot {
		t.Fatalf("restored slot %d, want %d", got, wantSlot)
	}
	if got := e2.Metrics().Reward.Load(); got != wantReward {
		t.Fatalf("restored cumulative reward %v, want %v", got, wantReward)
	}

	// The restored engine keeps scheduling: submitted ids continue the
	// allocator, streams drain, learning continues.
	id, _, err := e2.Submit(RequestSpec{AccessStation: 0})
	if err != nil {
		t.Fatal(err)
	}
	if id < 48 {
		t.Fatalf("restored id allocator handed out %d, want >= 48", id)
	}
	for i := 0; i < 8; i++ {
		if err := e2.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	after, err := e2.BanditSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if after.Policy.T <= got.Policy.T {
		t.Fatalf("bandit rounds did not advance after restore: %d -> %d", got.Policy.T, after.Policy.T)
	}
}

// snapshotViaDisk takes e's Snapshot, writes it with WriteCheckpoint and
// reads it back with LoadCheckpoint, so a restore from the result
// exercises the same bytes a shard file holds.
func snapshotViaDisk(t *testing.T, e *Engine, path string) *Checkpoint {
	t.Helper()
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(path, snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// TestDrain closes intake and lets the engine run dry: the tick that
// leaves nothing pending or running exits it, and late submissions get
// ErrDraining.
func TestDrain(t *testing.T) {
	e := testEngine(t, Config{})
	submitN(t, e, 4)
	if err := e.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Submit(RequestSpec{AccessStation: 0}); err != ErrDraining {
		t.Fatalf("submit during drain: %v, want ErrDraining", err)
	}
	for i := 0; i < 12 && e.Alive(); i++ {
		if err := e.Tick(); err != nil && err != ErrStopped {
			t.Fatal(err)
		}
	}
	select {
	case <-e.Done():
	default:
		t.Fatal("drained engine still alive after work ran dry")
	}
	if _, _, err := e.Submit(RequestSpec{AccessStation: 0}); err != ErrStopped {
		t.Fatalf("submit after drain exit: %v, want ErrStopped", err)
	}
	// The exited engine left its final state behind for Snapshot, and a
	// later Stop does not take it away.
	for _, when := range []string{"after drain exit", "after Stop"} {
		snap, err := e.Snapshot()
		if err != nil {
			t.Fatalf("snapshot %s: %v", when, err)
		}
		if snap.Totals.Submitted != 4 || snap.Totals.Ticks == 0 || snap.Slot != int(snap.Totals.Ticks) ||
			snap.NextExternalID != 4 || snap.Bandit == nil || len(snap.Requests) != 0 || len(snap.Running) != 0 {
			t.Fatalf("snapshot %s: %+v", when, snap)
		}
		if err := e.Stop(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompaction forces planner rebuilds mid-run and checks scheduling
// continues undisturbed across them.
func TestCompaction(t *testing.T) {
	e := testEngine(t, Config{CompactAfter: 8})
	for i := 0; i < 15; i++ {
		submitN(t, e, 3)
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	// With CompactAfter=8 and 45 requests over 3-slot holds, several
	// compactions must have run; the planner holds only the live tail.
	if n := len(e.planner.Requests()); n >= 45 {
		t.Fatalf("planner still holds %d requests; compaction never ran", n)
	}
	if e.Metrics().Submitted.Load() != 45 {
		t.Fatalf("submitted counter %d, want 45", e.Metrics().Submitted.Load())
	}
	// Drain everything; ledgers must return to zero through the rebuilt
	// planner exactly as through the original.
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12 && e.Alive(); i++ {
		if err := e.Tick(); err != nil && err != ErrStopped {
			t.Fatal(err)
		}
	}
	for i, u := range e.planner.Used() {
		if u > 1e-9 {
			t.Fatalf("station %d ledger %v after drain through compactions", i, u)
		}
	}
}

// TestBadSpecs exercises intake validation.
func TestBadSpecs(t *testing.T) {
	e := testEngine(t, Config{})
	cases := []RequestSpec{
		{AccessStation: -1},
		{AccessStation: 99},
		{AccessStation: 0, DeadlineMS: -5},
		{AccessStation: 0, DurationSlots: -2},
		{AccessStation: 0, Tasks: []TaskSpec{{Name: "x", OutputKb: -1}}},
		{AccessStation: 0, Outcomes: []OutcomeSpec{{RateMBs: 30, Prob: 0.5, Reward: 10}}}, // probs don't sum to 1
	}
	for i, spec := range cases {
		if _, _, err := e.Submit(spec); err == nil {
			t.Errorf("case %d: bad spec accepted: %+v", i, spec)
		}
	}
	if e.Metrics().Rejected.Load() != uint64(len(cases)) {
		t.Fatalf("rejected counter %d, want %d", e.Metrics().Rejected.Load(), len(cases))
	}
}

// TestCheckpointFileFormat checks atomicity plumbing: no temp file
// residue, version gate enforced.
func TestCheckpointFileFormat(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	ck := &Checkpoint{Version: checkpointVersion, Slot: 3, NextExternalID: 9, Scheduler: "dynamicrr"}
	if err := WriteCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("checkpoint dir has %d entries, want just the checkpoint", len(entries))
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Slot != 3 || got.NextExternalID != 9 {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
	if _, err := LoadCheckpoint(filepath.Join(dir, "absent.json")); err != ErrNoCheckpoint {
		t.Fatalf("absent checkpoint: %v, want ErrNoCheckpoint", err)
	}
	bad := &Checkpoint{Version: checkpointVersion + 1}
	if err := WriteCheckpoint(path, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("version mismatch not rejected")
	}
}

// TestBaselineSchedulers checks the -scheduler flag's engine paths: every
// baseline runs slots without bandit or warm-start support.
func TestBaselineSchedulers(t *testing.T) {
	for _, name := range []string{"ocorp", "greedy", "heukkt"} {
		t.Run(name, func(t *testing.T) {
			e := testEngine(t, Config{SchedulerName: name})
			submitN(t, e, 4)
			if err := e.Tick(); err != nil {
				t.Fatal(err)
			}
			if e.Metrics().Admitted.Load() == 0 {
				t.Fatalf("%s admitted nothing", name)
			}
			if _, err := e.BanditSnapshot(); err == nil {
				t.Fatalf("%s claims a bandit snapshot", name)
			}
		})
	}
	if _, err := New(Config{Net: testNetwork(t, 2), Rng: rand.New(rand.NewSource(1)), SchedulerName: "nope"}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

// TestTraceFormat checks the daemon's per-slot log mirrors arsim's trace
// line format.
func TestTraceFormat(t *testing.T) {
	var buf bytes.Buffer
	e := testEngine(t, Config{TraceWriter: &buf})
	submitN(t, e, 3)
	if err := e.Tick(); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimRight(buf.String(), "\n")
	if !strings.HasPrefix(line, "slot    0  pending   3  admitted ") {
		t.Fatalf("trace line %q does not match arsim format", line)
	}
	if !strings.Contains(line, "utilization ") || !strings.Contains(line, "threshold ") {
		t.Fatalf("trace line %q missing utilization/threshold fields", line)
	}
}
