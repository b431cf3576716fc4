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
// 4th, on the manual clock — with the ring, the stage and the pending
// queue all bounded at 512. Every shard's ring and stage stay inside
// their bounds after every batch, the shedding policy actually fires, and
// once flushed every accepted request is admitted, shed or rejected
// exactly once (Totals counts a request the clock re-homed once). At two
// shards requests span both and the migration sweep runs beside the
// intake.
func TestSaturatedIngestConserves(t *testing.T) {
	const (
		stations, bound    = 4, 512 // bound: a power of two, so it is the ring's capacity
		batches, batchSize = 40, 500
		batchesPerSlot     = 4
		minAdmitted        = 1000
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
				RingCapacity: bound, StageCapacity: bound, MaxPending: bound,
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
				for k, nd := range c.nodes {
					if d := nd.eng.RingDepth(); d > bound {
						t.Fatalf("batch %d: shard %d ring depth %d exceeds %d", b, k, d, bound)
					}
					if d := nd.eng.StagedDepth(); d > bound {
						t.Fatalf("batch %d: shard %d staged depth %d exceeds %d", b, k, d, bound)
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
