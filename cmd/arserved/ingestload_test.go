package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestNDJSONReplayMode replays a small NDJSON trace (blank lines as
// slot boundaries, one bad line) through the batched intake.
func TestNDJSONReplayMode(t *testing.T) {
	for _, shards := range []string{"1", "2"} {
		t.Run("shards="+shards, func(t *testing.T) { testNDJSONReplayMode(t, shards) })
	}
}

func testNDJSONReplayMode(t *testing.T, shards string) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.ndjson")
	body := `{"accessStation":0,"durationSlots":2}
{"accessStation":1,"durationSlots":2}

{"accessStation":2,"outcomes":[{"prob":1,"rateMBs":40,"reward":500}]}
{not json

{"accessStation":3}
`
	if err := os.WriteFile(trace, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	var out syncBuffer
	err := run([]string{
		"-replay", trace,
		"-stations", "4",
		"-seed", "7",
		"-shards", shards,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "replayed 3 ndjson slots across "+shards+" shards") {
		t.Fatalf("missing ndjson summary:\n%s", text)
	}
	if !strings.Contains(text, "accepted=4 badlines=1") {
		t.Fatalf("wrong accept/badline accounting:\n%s", text)
	}
	if !strings.Contains(text, "replay: line 5:") {
		t.Fatalf("bad line not reported with its absolute file line:\n%s", text)
	}
}

// TestLoadgenMode runs a short offered-load window and checks the
// summary, the benchjson artifact, and the accounting conservation the
// generator enforces internally.
func TestLoadgenMode(t *testing.T) {
	for _, shards := range []string{"1", "2"} {
		t.Run("shards="+shards, func(t *testing.T) { testLoadgenMode(t, shards) })
	}
}

func testLoadgenMode(t *testing.T, shards string) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "load.json")
	var out syncBuffer
	err := run([]string{
		"-loadgen",
		"-stations", "4",
		"-offered", "20000",
		"-load-duration", "300ms",
		"-load-batch", "64",
		"-tick", "20ms",
		"-max-pending", "256",
		"-load-out", jsonPath,
		"-shards", shards,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "loadgen: offered 20000 req/s") {
		t.Fatalf("missing loadgen summary:\n%s", out.String())
	}

	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var benches []bench
	if err := json.Unmarshal(data, &benches); err != nil {
		t.Fatalf("load-out is not benchjson-shaped: %v\n%s", err, data)
	}
	if len(benches) != 1 || benches[0].Name != "BenchmarkLoadgenIngest" {
		t.Fatalf("benches = %+v", benches)
	}
	b := benches[0]
	if b.Iters <= 0 || b.NsOp <= 0 {
		t.Fatalf("vacuous bench entry: %+v", b)
	}
	for _, key := range []string{"offered_rps", "accepted", "admitted", "shed", "p99_ms"} {
		if _, ok := b.Metrics[key]; !ok {
			t.Fatalf("bench metrics missing %q: %+v", key, b.Metrics)
		}
	}
	if b.Metrics["accepted"] <= 0 {
		t.Fatalf("load run accepted nothing: %+v", b.Metrics)
	}
}

// TestLoadgenGateFailure: an impossible admission floor must fail the
// run with a non-nil error naming the gate.
func TestLoadgenGateFailure(t *testing.T) {
	var out syncBuffer
	err := run([]string{
		"-loadgen",
		"-stations", "4",
		"-offered", "5000",
		"-load-duration", "100ms",
		"-load-batch", "64",
		"-tick", "20ms",
		"-load-min-admitted", "99999999",
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "admit-rate collapse") {
		t.Fatalf("err = %v, want admitted-floor gate failure", err)
	}
}
