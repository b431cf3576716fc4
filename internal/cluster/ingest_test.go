package cluster

import (
	"fmt"
	"testing"

	"mecoffload/internal/mec"
	"mecoffload/internal/rnd"
	"mecoffload/internal/serve"
)

// TestSaturatedIngestConserves drives the batched intake far past what 4
// stations admit — 40 batches of 500 explicit specs, a slot after every
// 4th, on the manual clock — with the door bounded at 1024 and the
// pending queue at 512. Every shard's door stays inside its bound after
// every batch, the shedding policy actually fires, and once flushed every
// accepted request is admitted, shed or rejected exactly once. At two
// shards requests span both.
func TestSaturatedIngestConserves(t *testing.T) {
	const (
		stations, door, maxPending = 4, 1024, 512
		batches, batchSize         = 40, 500
		batchesPerSlot             = 4
		minAdmitted                = 1000
	)
	specs := make([]serve.RequestSpec, batchSize)
	for i := range specs {
		// Spread rewards give the shedding policy a gradient to act on.
		specs[i] = serve.RequestSpec{
			AccessStation: i % stations,
			Outcomes:      []serve.OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: float64(300 + (i*7)%400)}},
		}
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// arserved's -stations 4 topology.
			net, err := mec.RandomNetwork(stations, 3000, 3600, rnd.New(42, "topology"))
			if err != nil {
				t.Fatal(err)
			}
			c, err := New(Config{
				Net: net, Shards: shards, Seed: 42,
				DoorCapacity: door, MaxPending: maxPending,
			})
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			defer func() { _ = c.Stop() }()

			accepted, shed := 0, 0
			for b := 1; b <= batches; b++ {
				res, err := c.SubmitBatch(specs)
				if err != nil {
					t.Fatalf("batch %d: %v", b, err)
				}
				accepted += len(res.IDs)
				shed += res.Shed
				for k, eng := range c.engines {
					if d := eng.Metrics().IntakeDepth.Load(); d > door {
						t.Fatalf("batch %d: shard %d door depth %d exceeds %d", b, k, d, door)
					}
				}
				if b%batchesPerSlot == 0 {
					if err := c.Tick(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			tot := c.Totals()
			t.Logf("accepted %d: admitted %d, shed %d, rejected %d", accepted, tot.Submitted, tot.Shed, tot.Rejected)
			if got := tot.Submitted + tot.Shed + tot.Rejected; got != uint64(accepted) {
				t.Fatalf("%d accepted but %d admitted + %d shed + %d rejected = %d",
					accepted, tot.Submitted, tot.Shed, tot.Rejected, got)
			}
			if shed == 0 || tot.Shed != uint64(shed) {
				t.Fatalf("shed %d in the totals, %d in the batch results: want equal and > 0", tot.Shed, shed)
			}
			if tot.Submitted < minAdmitted {
				t.Fatalf("admitted %d, want at least %d", tot.Submitted, minAdmitted)
			}
		})
	}
}
