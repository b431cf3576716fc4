package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"mecoffload/internal/cluster"
	"mecoffload/internal/workload"
)

// syncBuffer makes run's output readable while run is still writing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func writeTrace(t *testing.T, seconds int) string {
	t.Helper()
	tr, err := workload.GenerateTrace(seconds, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReplayMode exercises arserved -replay end to end: the trace drives
// the load generator, slots tick, and the summary reports served work.
func TestReplayMode(t *testing.T) {
	path := writeTrace(t, 5)
	var out bytes.Buffer
	err := run([]string{"-replay", path, "-stations", "4", "-seed", "7", "-trace"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "replayed 5 trace seconds") {
		t.Fatalf("missing replay summary in:\n%s", text)
	}
	if !strings.Contains(text, "slot    0  pending ") {
		t.Fatalf("missing trace lines in:\n%s", text)
	}
	summary := regexp.MustCompile(`submitted=(\d+) served=(\d+)`)
	m := summary.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("summary not parseable:\n%s", text)
	}
	if m[1] == "0" || m[2] == "0" {
		t.Fatalf("replay did no work: %s", m[0])
	}
	if strings.Contains(text, "[shard ") {
		t.Fatalf("one shard must keep arsim's unprefixed trace format:\n%s", text)
	}

	// The same flags at two shards: frame traces replay through the
	// router, and -trace reaches every shard under its own prefix. The
	// clock runs the shards' slots in shard order, so a second run prints
	// the same bytes.
	var sharded, again bytes.Buffer
	for _, buf := range []*bytes.Buffer{&sharded, &again} {
		if err := run([]string{"-replay", path, "-stations", "4", "-seed", "7", "-trace", "-shards", "2"}, buf); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(sharded.Bytes(), again.Bytes()) {
		t.Fatalf("two 2-shard replays printed different output:\n%s\n---\n%s", sharded.String(), again.String())
	}
	text = sharded.String()
	for _, want := range []string{"replayed 5 trace seconds", "[shard 0] slot    0  pending ", "[shard 1] slot    0  pending "} {
		if !strings.Contains(text, want) {
			t.Fatalf("2-shard replay output missing %q:\n%s", want, text)
		}
	}
	if m2 := summary.FindStringSubmatch(text); m2 == nil || m2[1] != m[1] || m2[2] == "0" {
		t.Fatalf("2-shard replay summary %v, want submitted=%s and work served", m2, m[1])
	}
}

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

// TestServeModeSignalDrain boots the full HTTP daemon on an ephemeral
// port, exercises the API, then SIGTERMs the process and checks run
// returns nil after a clean drain — the same sequence the CI smoke job
// drives from the outside.
func TestServeModeSignalDrain(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "state.json")
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0", "-stations", "4", "-tick", "10ms",
			"-checkpoint", ckpt, "-checkpoint-every", "5",
		}, out)
	}()

	// Wait for the announced address.
	var base string
	re := regexp.MustCompile(`listening on (\S+)`)
	for i := 0; i < 200; i++ {
		if m := re.FindStringSubmatch(out.String()); m != nil {
			base = "http://" + m[1]
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if base == "" {
		t.Fatalf("daemon never announced an address:\n%s", out.String())
	}

	for i := 0; i < 5; i++ {
		body := fmt.Sprintf(`{"accessStation": %d, "durationSlots": 2}`, i%4)
		resp, err := http.Post(base+"/v1/requests", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d -> %d: %s", i, resp.StatusCode, data)
		}
		var sub struct {
			ID uint64 `json:"id"`
		}
		if err := json.Unmarshal(data, &sub); err != nil {
			t.Fatal(err)
		}
		if sub.ID != uint64(i) {
			t.Fatalf("id %d, want %d", sub.ID, i)
		}
	}

	// Let a few wall-clock ticks run, then check the scrape surfaces.
	time.Sleep(100 * time.Millisecond)
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(metrics) == 0 {
		t.Fatalf("metrics scrape %d, %d bytes", resp.StatusCode, len(metrics))
	}
	if !strings.Contains(string(metrics), `arserved_cluster_ticks_total{shard="0"}`) {
		t.Fatal("metrics missing tick counter")
	}
	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s -> %d", ep, resp.StatusCode)
		}
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run exited with %v\n%s", err, out.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not drain after SIGTERM:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "drained cleanly") {
		t.Fatalf("no clean drain marker:\n%s", out.String())
	}
	// The final manifest is written after the shard's loop has exited; it
	// must still hold what the shard learned and counted.
	var man cluster.Manifest
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("no checkpoint written at shutdown: %v", err)
	}
	if err := json.Unmarshal(data, &man); err != nil || len(man.Shards) != 1 || man.Shards[0].Checkpoint == nil {
		t.Fatalf("final manifest (err %v): %s", err, data)
	}
	if ck := man.Shards[0].Checkpoint; ck.Totals.Submitted != 5 || ck.Totals.Ticks == 0 || ck.Bandit == nil || ck.Bandit.Policy.T == 0 {
		t.Fatalf("final checkpoint after a clean drain lost the shard's state: totals %+v bandit %+v", ck.Totals, ck.Bandit)
	}
	// The generation is that one file.
	if entries, err := os.ReadDir(filepath.Dir(ckpt)); err != nil || len(entries) != 1 {
		t.Fatalf("checkpoint directory holds %v (err %v), want only %s", entries, err, filepath.Base(ckpt))
	}
}

// TestBadFlags covers the error paths.
func TestBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-replay", "/does/not/exist.json"}, &out); err == nil {
		t.Fatal("missing trace accepted")
	}
	if err := run([]string{"-scenario-in", "/does/not/exist.json"}, &out); err == nil {
		t.Fatal("missing scenario accepted")
	}
	// A removed flag fails at parsing instead of changing meaning.
	for _, removed := range [][]string{
		{"-cluster-shards", "2"}, {"-incremental"}, {"-workers", "2"},
		{"-loadgen"}, {"-offered", "100000"}, {"-load-duration", "2s"}, {"-load-batch", "500"},
		{"-load-out", "load.json"}, {"-load-max-p99-ms", "50"}, {"-load-min-offered-frac", "0.9"},
		{"-load-min-admitted", "1000"}, {"-ring", "4096"}, {"-stage", "4096"},
		{"-bandit", "sw-ucb"}, {"-scheduler", "ocorp"}, {"-checkpoint-async=false"},
	} {
		err := run(append(removed, "-replay", "/does/not/exist.json"), &out)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Fatalf("%v: %v, want an unknown-flag error", removed, err)
		}
	}
	// A shard count the topology cannot honour is rejected, not clamped.
	for _, n := range []string{"0", "-1", "5", "999"} {
		err := run([]string{"-shards", n, "-stations", "4", "-replay", "/does/not/exist.json"}, &out)
		if err == nil || !strings.Contains(err.Error(), "-shards") {
			t.Fatalf("-shards %s on 4 stations: %v, want a -shards range error", n, err)
		}
	}
	// A non-positive -tick would serve on the manual clock and never decide
	// anything; only a replay, which drives the clock itself, ignores it.
	for _, args := range [][]string{{"-tick", "0"}, {"-tick", "-50ms"}} {
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), "-tick") {
			t.Fatalf("%v: %v, want a -tick error", args, err)
		}
	}
	// A value the daemon would clamp, default or never read is a typo, and
	// the error names its flag instead of running with something else.
	for _, args := range [][]string{
		{"-checkpoint-every", "-5"}, {"-checkpoint-every", "0"},
		{"-max-pending", "-1"}, {"-door", "-1"}, {"-slot-ms", "0"}, {"-slot-ms", "-50"},
		{"-block-profile", "1000"}, {"-mutex-profile", "5"},
	} {
		err := run(append(args, "-replay", "/does/not/exist.json"), &out)
		if want := strings.Join(args, " ") + ":"; err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("%v: %v, want an error starting %q", args, err, want)
		}
	}
}
