package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mecoffload/internal/mec"
	"mecoffload/internal/rnd"
	"mecoffload/internal/sim"
	"mecoffload/internal/workload"
)

// TestRunEachScheduler: the flag's four values are the table's online
// algorithms in lower case, and each runs.
func TestRunEachScheduler(t *testing.T) {
	want := []string{"dynamicrr", "ocorp", "greedy", "heukkt"}
	var table []string
	for _, name := range sim.OnlineAlgorithms() {
		table = append(table, strings.ToLower(name))
	}
	if !slices.Equal(table, want) {
		t.Fatalf("online algorithms %v, want %v", table, want)
	}
	for _, sched := range want {
		var out strings.Builder
		err := run([]string{
			"-scheduler", sched, "-requests", "60", "-horizon", "30", "-stations", "8",
		}, &out)
		if err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		if !strings.Contains(out.String(), "reward=$") {
			t.Fatalf("%s: missing summary:\n%s", sched, out.String())
		}
	}
}

func TestRunTraceFlag(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-scheduler", "dynamicrr", "-requests", "40", "-horizon", "20", "-stations", "6", "-trace",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "slot ") {
		t.Fatalf("trace lines missing:\n%s", out.String())
	}
}

// TestTraceFeedsLearner: arsim's step hook, which writes -trace's lines
// and feeds -dump's recorder, only observes, so DynamicRR's bandit plays
// once per traced slot and its per-arm plays equal those of a run with no
// hook on the same seed.
func TestTraceFeedsLearner(t *testing.T) {
	run := func(observed bool) ([]int, int) {
		rng := rnd.New(5, "scenario")
		net, err := mec.RandomNetwork(6, 3000, 3600, rng)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := workload.Generate(workload.Config{
			NumRequests: 600, NumStations: 6, GeometricRates: true, ArrivalHorizon: 60,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		d, err := sim.NewDynamicRR(sim.DynamicRROptions{})
		if err != nil {
			t.Fatal(err)
		}
		var (
			out  strings.Builder
			rec  sim.Recorder
			opts = sim.RunOptions{Horizon: 80}
		)
		if observed {
			opts.StepChecker = observe(d, &rec, &out)
		}
		if _, _, err := sim.Simulate(net, reqs, d, rnd.New(5, "engine"), opts); err != nil {
			t.Fatal(err)
		}
		lines := strings.Count(out.String(), "slot ")
		if lines != len(rec.Samples()) {
			t.Errorf("%d traced slots, %d recorded", lines, len(rec.Samples()))
		}
		pol := d.Bandit().Policy()
		plays := make([]int, pol.NumArms())
		for arm := range plays {
			plays[arm] = pol.Plays(arm)
		}
		return plays, lines
	}
	want, _ := run(false)
	plays, lines := run(true)
	total := 0
	for _, p := range plays {
		total += p
	}
	if lines == 0 || total != lines {
		t.Errorf("%d traced slots, %d bandit plays: want one play per traced slot", lines, total)
	}
	if !slices.Equal(plays, want) {
		t.Errorf("plays per arm %v, unobserved run %v", plays, want)
	}
}

// TestRunUnknownScheduler: a name outside the table's online algorithms —
// a removed scheduler, an offline-only algorithm, or a table name not in
// lower case — is refused as an unknown scheduler.
func TestRunUnknownScheduler(t *testing.T) {
	for _, name := range []string{"oracle", "local-ratio", "exact", "appro", "heu", "DynamicRR"} {
		var out strings.Builder
		err := run([]string{"-scheduler", name, "-requests", "10", "-horizon", "5"}, &out)
		if err == nil || !strings.Contains(err.Error(), "unknown scheduler") {
			t.Errorf("-scheduler %s: %v, want an unknown-scheduler error", name, err)
		}
	}
}

// TestRemovedIncrementalFlag: decision reuse is the one path and its
// component pass is sequential, so the flags that used to select either
// fail at parsing instead of being ignored (the scheduler name that
// switched the local-ratio certificate on is an unknown one, checked by
// TestRunUnknownScheduler). The frame-trace
// replay mode and its flags are gone too: arserved -replay is the replay,
// held to oracle.FrameReplay. So is -bandit: successive elimination is
// the one arm policy.
func TestRemovedIncrementalFlag(t *testing.T) {
	var out strings.Builder
	for _, removed := range [][]string{
		{"-incremental"}, {"-workers", "2"},
		{"-replay", "trace.json"}, {"-requests-per-30fps", "1"}, {"-replay-dump", "decisions.json"}, {"-slot-ms", "50"},
		{"-bandit", "sw-ucb"},
	} {
		err := run(append(removed, "-requests", "10", "-horizon", "5"), &out)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Fatalf("%v: %v, want an unknown-flag error", removed, err)
		}
	}
}

func TestRunDumpAndScenarioRoundTrip(t *testing.T) {
	dir := t.TempDir()
	scen := filepath.Join(dir, "scen.json")
	dump := filepath.Join(dir, "trace.json")
	var out strings.Builder
	err := run([]string{
		"-scheduler", "ocorp", "-requests", "30", "-horizon", "15", "-stations", "5",
		"-scenario-out", scen, "-dump", dump,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	first := out.String()

	// Replaying the saved scenario reproduces the same run.
	var out2 strings.Builder
	err = run([]string{"-scheduler", "ocorp", "-horizon", "15", "-scenario-in", scen, "-seed", "42"}, &out2)
	if err != nil {
		t.Fatal(err)
	}
	if firstLine(first) != firstLine(out2.String()) {
		t.Fatalf("replay diverged:\n%q\nvs\n%q", first, out2.String())
	}
	if _, err := os.Stat(dump); err != nil {
		t.Fatalf("trace dump missing: %v", err)
	}
}

// firstLine is the run summary without its wall-clock field, the one part
// of it two runs of the same scenario may differ in.
func firstLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if i := strings.Index(s, " runtime="); i >= 0 {
		s = s[:i]
	}
	return s
}

// TestDefaultRunsPinned: at default flags each scheduler's summary line
// (runtime stripped) and a digest of its -dump decisions keep the values
// recorded here, so a change that should move no decision is checked
// against them rather than by hand.
func TestDefaultRunsPinned(t *testing.T) {
	for _, tc := range []struct{ sched, summary, decisions string }{
		{"dynamicrr", "DynamicRR over 140 slots: reward=$125674 served=265/300 admitted=300 avgLatency=79.0ms", "820f1d4507dc18ba"},
		{"ocorp", "OCORP over 140 slots: reward=$121077 served=250/300 admitted=259 avgLatency=104.1ms", "4c0b9c5f4430c9f8"},
		{"greedy", "Greedy over 140 slots: reward=$73541 served=152/300 admitted=152 avgLatency=79.7ms", "dd5415c3dc840709"},
		{"heukkt", "HeuKKT over 140 slots: reward=$111960 served=228/300 admitted=228 avgLatency=94.6ms", "fc59db30a8b4b1f5"},
	} {
		dump := filepath.Join(t.TempDir(), "trace.json")
		var out strings.Builder
		if err := run([]string{"-scheduler", tc.sched, "-dump", dump}, &out); err != nil {
			t.Fatalf("%s: %v", tc.sched, err)
		}
		if got := firstLine(out.String()); got != tc.summary {
			t.Errorf("%s: summary %q, want %q", tc.sched, got, tc.summary)
		}
		if got := decisionDigest(t, dump); got != tc.decisions {
			t.Errorf("%s: decision digest %s, want %s", tc.sched, got, tc.decisions)
		}
	}
}

// decisionDigest hashes the decisions of the run trace dumped at path.
func decisionDigest(t *testing.T, path string) string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := sim.ReadRunTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(tr.Decisions)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}
