package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mecoffload/internal/mec"
	"mecoffload/internal/oracle"
	"mecoffload/internal/rnd"
	"mecoffload/internal/workload"
)

// TestReplayMatchesGoldenOracle: arserved -replay — a 1-shard cluster —
// must reproduce the oracle's golden frame replay decision for decision.
// Together with the matching test on cmd/arsim, this proves the two
// commands produce identical per-slot admissions and total reward on the
// same trace and seed, through the daemon's full router/channel/shard
// machinery on one side and the bare engine on the other. Admissions
// compare as sets per slot: the cluster reports ascending ids, the
// planner admission order.
func TestReplayMatchesGoldenOracle(t *testing.T) {
	trace := writeTrace(t, 4)
	dumpPath := filepath.Join(t.TempDir(), "decisions.json")

	var out syncBuffer
	err := run([]string{
		"-replay", trace, "-stations", "5", "-seed", "77",
		"-requests-per-30fps", "1", "-replay-dump", dumpPath,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "replayed 4 trace seconds") {
		t.Fatalf("missing replay summary:\n%s", out.String())
	}

	data, err := os.ReadFile(dumpPath)
	if err != nil {
		t.Fatal(err)
	}
	var got oracle.ReplayDump
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.ReadTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	net, err := mec.RandomNetwork(5, 3000, 3600, rnd.New(77, "topology"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.FrameReplay(net, tr, 77, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want.Submitted == 0 || len(want.Slots) == 0 {
		t.Fatalf("golden replay is vacuous: %+v", want)
	}
	if d := got.Normalized().Diff(want.Normalized()); d != "" {
		t.Fatalf("arserved -replay diverges from the golden oracle replay: %s", d)
	}
}
