package oracle

import (
	"math/rand"
	"sync"
	"testing"

	"mecoffload/internal/mec"
	"mecoffload/internal/sim"
	"mecoffload/internal/workload"
)

func oracleNetErr(stations int, seed int64) (*mec.Network, error) {
	return mec.RandomNetwork(stations, 3000, 3600, rand.New(rand.NewSource(seed)))
}

// TestFrameReplayDeterministic runs the golden frame-trace replay twice
// concurrently on the same trace and seed; the dumps must be bit-for-bit
// equal. Running both from goroutines also puts the whole hot path —
// engine, scheduler, bandit, checker — under the race detector in the
// -race CI job.
func TestFrameReplayDeterministic(t *testing.T) {
	tr, err := workload.GenerateTrace(5, rand.New(rand.NewSource(321)))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	dumps := make([]*ReplayDump, 2)
	errs := make([]error, 2)
	for i := range dumps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each replay needs its own network: the engine mutates
			// occupancy ledgers in place.
			n, err := oracleNetErr(4, 322)
			if err != nil {
				errs[i] = err
				return
			}
			dumps[i], errs[i] = FrameReplay(n, tr, 99, 0, 1)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
	}
	if dumps[0].Submitted == 0 {
		t.Fatal("replay submitted no requests")
	}
	if len(dumps[0].Slots) == 0 {
		t.Fatal("replay admitted nothing; the parity check is vacuous")
	}
	if !dumps[0].Equal(dumps[1]) {
		t.Fatalf("replays diverge: %s", dumps[0].Diff(dumps[1]))
	}
}

// TestReplayDumpDiff pins the divergence reporter itself.
func TestReplayDumpDiff(t *testing.T) {
	a := &ReplayDump{Submitted: 3, TotalReward: 10,
		Slots: []SlotAdmissions{{Slot: 1, Admitted: []int{0}, Reward: 10}}}
	b := &ReplayDump{Submitted: 3, TotalReward: 10,
		Slots: []SlotAdmissions{{Slot: 1, Admitted: []int{0}, Reward: 10}}}
	if !a.Equal(b) || a.Diff(b) != "" {
		t.Fatalf("identical dumps compare unequal: %q", a.Diff(b))
	}
	b.Slots[0].Admitted = []int{1}
	if a.Equal(b) || a.Diff(b) == "" {
		t.Fatal("diverging dumps compare equal")
	}
}

// TestRecordReplaySchedulers checks run-to-run determinism of the full
// online pipeline for the paper's scheduler and the naive reference.
func TestRecordReplaySchedulers(t *testing.T) {
	net := oracleNet(t, 4, 500)
	reqs := oracleWorkload(t, workload.Config{
		NumRequests:    80,
		NumStations:    4,
		GeometricRates: true,
		ArrivalHorizon: 25,
	}, 501)

	t.Run("dynamicrr", func(t *testing.T) {
		mk := func() (sim.Scheduler, error) {
			return sim.NewDynamicRR(sim.DynamicRROptions{})
		}
		if err := RecordReplay(net, reqs, 502, 60, mk); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("naive", func(t *testing.T) {
		mk := func() (sim.Scheduler, error) { return NaiveScheduler{}, nil }
		if err := RecordReplay(net, reqs, 503, 60, mk); err != nil {
			t.Fatal(err)
		}
	})
}
