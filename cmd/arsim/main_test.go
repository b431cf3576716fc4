package main

import (
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

// TestTraceFeedsLearner: the trace wrapper, alone and under -dump's
// recorder, passes every slot's reward on to DynamicRR, so its bandit
// plays once per traced slot and its per-arm plays equal those of the
// unwrapped run on the same seed.
func TestTraceFeedsLearner(t *testing.T) {
	run := func(wrap func(sim.Scheduler, *strings.Builder) sim.Scheduler) ([]int, int) {
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
		var out strings.Builder
		if _, _, err := sim.Simulate(net, reqs, wrap(d, &out), rnd.New(5, "engine"), sim.RunOptions{Horizon: 80}); err != nil {
			t.Fatal(err)
		}
		pol := d.Bandit().Policy()
		plays := make([]int, pol.NumArms())
		for arm := range plays {
			plays[arm] = pol.Plays(arm)
		}
		return plays, strings.Count(out.String(), "slot ")
	}
	want, _ := run(func(s sim.Scheduler, _ *strings.Builder) sim.Scheduler { return s })
	for name, wrap := range map[string]func(sim.Scheduler, *strings.Builder) sim.Scheduler{
		"trace": func(s sim.Scheduler, out *strings.Builder) sim.Scheduler {
			return &traceScheduler{Scheduler: s, out: out}
		},
		"trace+recorder": func(s sim.Scheduler, out *strings.Builder) sim.Scheduler {
			return sim.NewRecorder(&traceScheduler{Scheduler: s, out: out})
		},
	} {
		plays, lines := run(wrap)
		total := 0
		for _, p := range plays {
			total += p
		}
		if lines == 0 || total != lines {
			t.Errorf("%s: %d traced slots, %d bandit plays: want one play per traced slot", name, lines, total)
		}
		if !slices.Equal(plays, want) {
			t.Errorf("%s: plays per arm %v, unwrapped run %v", name, plays, want)
		}
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
