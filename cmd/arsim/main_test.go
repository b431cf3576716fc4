package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunEachScheduler(t *testing.T) {
	for _, sched := range []string{"dynamicrr", "ocorp", "greedy", "heukkt"} {
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

func TestRunUnknownScheduler(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-scheduler", "oracle"}, &out); err == nil {
		t.Fatal("want error for unknown scheduler")
	}
}

// TestRemovedIncrementalFlag: decision reuse is the one path and its
// component pass is sequential, so the flags that used to select either
// fail at parsing instead of being ignored, and the scheduler name that
// switched the local-ratio certificate on is an unknown one. The frame-trace
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
	err := run([]string{"-scheduler", "local-ratio", "-requests", "10", "-horizon", "5"}, &out)
	if err == nil || !strings.Contains(err.Error(), "unknown scheduler") {
		t.Fatalf("-scheduler local-ratio: %v, want an unknown-scheduler error", err)
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
