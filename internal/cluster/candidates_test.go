package cluster_test

// A request whose candidate set is or becomes empty, pinned by the same
// contract as TestClusterParity: sharding must be invisible in the
// decision stream. Every run here also carries the oracle's step checker,
// so conservation is verified on the slots where such requests expire.

import (
	"fmt"
	"strings"
	"testing"

	"mecoffload/internal/cluster"
	"mecoffload/internal/mec"
	"mecoffload/internal/oracle"
	"mecoffload/internal/serve"
)

// checkedParityConfig is parityConfig plus the oracle's per-slot
// conservation checks.
func checkedParityConfig(net *mec.Network, shards int) cluster.Config {
	cfg := parityConfig(net, shards)
	cfg.StepChecker = oracle.EngineChecker()
	return cfg
}

// backgroundLine emits one routine admit-immediately request: a 40 MB/s
// single-outcome stream any 3200 MHz station serves, with an integer
// reward so cross-shard sums stay exact.
func backgroundLine(b *strings.Builder, station, slot int) {
	fmt.Fprintf(b, `{"accessStation":%d,"durationSlots":2,"outcomes":[{"rateMBs":40,"prob":1,"reward":%d}]}`+"\n",
		station, 100+(slot*37)%400)
}

// TestClusterCandidateShrinksEmpty: two ways a request's candidate set
// reaches empty — born empty (no station supports its rate: the router
// must still home it deterministically and it must expire, not vanish)
// and shrunk empty mid-stream (feasible at submission, but saturated
// stations hold it pending until its deadline drains below every
// station's reach). Both decision streams must be shard-count
// invariant.
func TestClusterCandidateShrinksEmpty(t *testing.T) {
	const islands, per = 8, 2
	net := islandNetwork(t, islands, per)

	var b strings.Builder
	// Slot 0: saturate island 1 (stations 2, 3) with two 140 MB/s
	// 12-slot streams — 5600 of the island's joint 6400 MHz, leaving 800
	// MHz of spare the LP can still split.
	fmt.Fprintf(&b, `{"accessStation":2,"durationSlots":12,"outcomes":[{"rateMBs":140,"prob":1,"reward":600}]}`+"\n")
	fmt.Fprintf(&b, `{"accessStation":3,"durationSlots":12,"outcomes":[{"rateMBs":140,"prob":1,"reward":600}]}`+"\n")
	// Born-empty: 400 MB/s (8000 MHz) exceeds even a whole island's
	// joint capacity; expires without ever having a candidate.
	fmt.Fprintf(&b, `{"accessStation":0,"deadlineMS":300,"durationSlots":2,"outcomes":[{"rateMBs":400,"prob":1,"reward":900}]}`+"\n")
	b.WriteString("\n")
	// Slot 1: the shrink case — 80 MB/s (1600 MHz) fits an unloaded
	// island-1 station but not the saturated island's 800 MHz of spare,
	// and its 350 ms deadline drains before the saturating streams
	// release at slot 12.
	fmt.Fprintf(&b, `{"accessStation":2,"deadlineMS":350,"durationSlots":2,"outcomes":[{"rateMBs":80,"prob":1,"reward":444}]}`+"\n")
	b.WriteString("\n")
	for slot := 2; slot <= 14; slot++ {
		backgroundLine(&b, 2*(2+slot%6), slot) // islands 2..7
		b.WriteString("\n")
	}
	for i := 0; i < 12; i++ {
		b.WriteString("\n")
	}
	trace := b.String()

	err := oracle.DiffCluster(func(shards int) (*oracle.ReplayDump, error) {
		return cluster.ReplayDump(checkedParityConfig(net, shards), trace)
	}, 2, 8)
	if err != nil {
		t.Fatal(err)
	}

	// Non-vacuity at 2 shards: the born-empty request has no candidate,
	// and both doomed requests expire.
	c, err := cluster.New(checkedParityConfig(net, 2))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer func() { _ = c.Stop() }()
	sat1, _, err := c.Submit(serve.RequestSpec{
		AccessStation: 2, DurationSlots: 12,
		Outcomes: []serve.OutcomeSpec{{RateMBs: 140, Prob: 1, Reward: 600}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sat2, _, err := c.Submit(serve.RequestSpec{
		AccessStation: 3, DurationSlots: 12,
		Outcomes: []serve.OutcomeSpec{{RateMBs: 140, Prob: 1, Reward: 600}},
	})
	if err != nil {
		t.Fatal(err)
	}
	bornSpec := serve.RequestSpec{
		AccessStation: 0, DeadlineMS: 300, DurationSlots: 2,
		Outcomes: []serve.OutcomeSpec{{RateMBs: 400, Prob: 1, Reward: 900}},
	}
	// Islands leave the router no choice, so it builds no candidate list;
	// the request is born empty all the same.
	if cands, err := serve.SpecCandidates(net, bornSpec, nil); err != nil || len(cands) != 0 {
		t.Fatalf("born-empty request has candidates %v (%v)", cands, err)
	}
	born, _, err := c.Submit(bornSpec)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Tick(); err != nil {
		t.Fatal(err)
	}
	shrunk, _, err := c.Submit(serve.RequestSpec{
		AccessStation: 2, DeadlineMS: 350, DurationSlots: 2,
		Outcomes: []serve.OutcomeSpec{{RateMBs: 80, Prob: 1, Reward: 444}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for slot := 1; slot < 10; slot++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []struct {
		id    uint64
		state string
		what  string
	}{
		{sat1, serve.StateServing, "saturating stream 1"},
		{sat2, serve.StateServing, "saturating stream 2"},
		{born, serve.StateExpired, "born-empty request"},
		{shrunk, serve.StateExpired, "shrunk-empty request"},
	} {
		rec, ok, err := c.Status(want.id)
		if err != nil || !ok {
			t.Fatalf("%s: status ok=%v err=%v", want.what, ok, err)
		}
		if rec.State != want.state {
			t.Fatalf("%s: state %q, want %q", want.what, rec.State, want.state)
		}
	}
}
