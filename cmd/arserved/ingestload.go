package main

// The load generator (`-loadgen`) drives SubmitBatch at a fixed offered
// rate against the wall-clock cluster, reporting admit/shed/p99 in
// benchjson's format so CI can gate ingest-path regressions.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"mecoffload/internal/cluster"
	"mecoffload/internal/serve"
)

// loadGates are the pass/fail thresholds of a load run; zero values
// disable a gate.
type loadGates struct {
	MaxP99MS       float64 // batch-submit p99 latency ceiling
	MinOfferedFrac float64 // achieved / target offered-rate floor
	MinAdmitted    uint64  // planner-admission floor
}

// loadReport summarizes one load-generator run.
type loadReport struct {
	TargetRPS    int
	Offered      int // requests handed to SubmitBatch
	Accepted     int // ids returned (admitted to intake)
	Saturated    int // batches refused with ErrSaturated
	Admitted     uint64
	Shed         uint64
	Rejected     uint64
	Elapsed      time.Duration
	P50MS, P99MS float64
}

func (r *loadReport) achievedRPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Offered) / r.Elapsed.Seconds()
}

// bench mirrors cmd/benchjson's Bench JSON shape (kept local: both are
// main packages).
type bench struct {
	Name     string             `json:"name"`
	Iters    int64              `json:"iters"`
	NsOp     float64            `json:"ns_op"`
	BytesOp  float64            `json:"bytes_op"`
	AllocsOp float64            `json:"allocs_op"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
}

// runLoadgen drives the batched intake at a fixed offered rate for the
// given window against a wall-clock cluster — the router, the shards'
// ingest pumps and the cluster clock under exactly the contention of the
// HTTP daemon — then flushes, verifies the bounded-queue invariants on
// every shard, and applies the gates.
func runLoadgen(c *cluster.Cluster, stations, targetRPS int, window time.Duration, batchSize int,
	gates loadGates, jsonPath string, out io.Writer) error {
	if targetRPS <= 0 || batchSize <= 0 {
		return fmt.Errorf("loadgen: offered rate and batch size must be positive")
	}
	if batchSize > targetRPS {
		batchSize = targetRPS
	}
	specs := make([]serve.RequestSpec, batchSize)
	for i := range specs {
		// Explicit single-outcome specs with spread rewards: admission
		// skips the default-spec RNG draws and the shedding policy has a
		// reward gradient to act on.
		specs[i] = serve.RequestSpec{
			AccessStation: i % stations,
			Outcomes: []serve.OutcomeSpec{
				{RateMBs: 40, Prob: 1, Reward: float64(300 + (i*7)%400)},
			},
		}
	}

	var (
		rep       = loadReport{TargetRPS: targetRPS}
		latencies []float64 // per-batch SubmitBatch wall time, ms
		interval  = time.Duration(float64(time.Second) * float64(batchSize) / float64(targetRPS))
		start     = time.Now()
		deadline  = start.Add(window)
		next      = start
	)
	for time.Now().Before(deadline) {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		next = next.Add(interval)
		t0 := time.Now()
		res, err := c.SubmitBatch(specs)
		lat := time.Since(t0)
		rep.Offered += batchSize
		switch {
		case err == nil:
			rep.Accepted += len(res.IDs)
		case errors.Is(err, serve.ErrSaturated):
			rep.Saturated++
		default:
			return fmt.Errorf("loadgen: %w", err)
		}
		latencies = append(latencies, float64(lat)/float64(time.Millisecond))
	}
	rep.Elapsed = time.Since(start)

	// Bounded-queue invariant: the generation window must end with both
	// ingest queues inside their configured bounds.
	if err := c.CheckIngestBounds(); err != nil {
		return fmt.Errorf("loadgen: %w", err)
	}
	if err := c.Flush(); err != nil {
		return err
	}
	t := c.Totals()
	rep.Admitted = t.Submitted
	rep.Shed = t.Shed
	rep.Rejected = t.Rejected
	// Conservation: every accepted request is admitted, shed, or
	// rejected once the flush completes (summed over shards, a request
	// the clock re-homed counted once).
	if rep.Admitted+rep.Shed+rep.Rejected != uint64(rep.Accepted) {
		return fmt.Errorf("loadgen: %d accepted but %d+%d+%d accounted (admitted+shed+rejected)",
			rep.Accepted, rep.Admitted, rep.Shed, rep.Rejected)
	}

	sort.Float64s(latencies)
	quantile := func(q float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		i := int(q * float64(len(latencies)-1))
		return latencies[i]
	}
	rep.P50MS, rep.P99MS = quantile(0.50), quantile(0.99)

	fmt.Fprintf(out, "loadgen: offered %d req/s for %v: achieved=%.0f req/s accepted=%d admitted=%d shed=%d rejected=%d saturated-batches=%d p50=%.3fms p99=%.3fms\n",
		targetRPS, window, rep.achievedRPS(), rep.Accepted, rep.Admitted, rep.Shed,
		rep.Rejected, rep.Saturated, rep.P50MS, rep.P99MS)

	if jsonPath != "" {
		b := []bench{{
			Name:  "BenchmarkLoadgenIngest",
			Iters: int64(rep.Offered),
			NsOp:  float64(rep.Elapsed.Nanoseconds()) / float64(max(rep.Offered, 1)),
			Metrics: map[string]float64{
				"offered_rps_target": float64(rep.TargetRPS),
				"offered_rps":        rep.achievedRPS(),
				"accepted":           float64(rep.Accepted),
				"admitted":           float64(rep.Admitted),
				"shed":               float64(rep.Shed),
				"saturated_batches":  float64(rep.Saturated),
				"p50_ms":             rep.P50MS,
				"p99_ms":             rep.P99MS,
			},
		}}
		data, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}

	var failures []string
	if gates.MaxP99MS > 0 && rep.P99MS > gates.MaxP99MS {
		failures = append(failures, fmt.Sprintf("p99 %.3fms exceeds %.3fms", rep.P99MS, gates.MaxP99MS))
	}
	if gates.MinOfferedFrac > 0 && rep.achievedRPS() < gates.MinOfferedFrac*float64(targetRPS) {
		failures = append(failures, fmt.Sprintf("achieved %.0f req/s below %.0f%% of %d target",
			rep.achievedRPS(), gates.MinOfferedFrac*100, targetRPS))
	}
	if gates.MinAdmitted > 0 && rep.Admitted < gates.MinAdmitted {
		failures = append(failures, fmt.Sprintf("admitted %d below floor %d (admit-rate collapse)",
			rep.Admitted, gates.MinAdmitted))
	}
	if len(failures) > 0 {
		return fmt.Errorf("loadgen gates failed: %s", strings.Join(failures, "; "))
	}
	return nil
}
