package serve

import (
	"math"
	"testing"
)

// TestObserveNMatchesObserve: ObserveN(x, n) leaves every bucket and the
// count where n calls of Observe(x) leave them, at bucket bounds, between
// them and beyond the last, and the sum within rounding of n·x.
func TestObserveNMatchesObserve(t *testing.T) {
	for _, x := range []float64{0, 0.05, 0.07, 1, 2.5, 3, 499.9, 500, 501, 1e9} {
		for _, n := range []uint64{0, 1, 3, 1000} {
			once, each := newHistogram(intakeLatencyBucketsMS), newHistogram(intakeLatencyBucketsMS)
			once.ObserveN(x, n)
			for i := uint64(0); i < n; i++ {
				each.Observe(x)
			}
			a, b := once.snapshot(), each.snapshot()
			for i := range a.Counts {
				if a.Counts[i] != b.Counts[i] {
					t.Fatalf("ObserveN(%v, %d): bucket le=%v holds %d, %d Observe calls leave %d", x, n, a.Bounds[i], a.Counts[i], n, b.Counts[i])
				}
			}
			if a.Count != n || b.Count != n {
				t.Fatalf("ObserveN(%v, %d): count %d, %d Observe calls leave %d", x, n, a.Count, n, b.Count)
			}
			if math.Abs(a.Sum-b.Sum) > 1e-9*math.Abs(b.Sum) {
				t.Fatalf("ObserveN(%v, %d): sum %v, %d Observe calls leave %v", x, n, a.Sum, n, b.Sum)
			}
		}
	}
}

// TestIntakeLatencyCountsAdmitted: after one flushed take of three batches,
// the intake-latency histogram has counted each request the planner took,
// and none it refused (a spec that reaches the engine unchecked).
func TestIntakeLatencyCountsAdmitted(t *testing.T) {
	e := testEngine(t, Config{})
	bad := RequestSpec{AccessStation: 0, DurationSlots: -1}
	for _, batch := range [][]RequestSpec{
		{pricedSpec(0, 100), pricedSpec(1, 100), pricedSpec(2, 100)},
		{pricedSpec(3, 100), bad, pricedSpec(0, 100)},
		{bad, pricedSpec(1, 100), pricedSpec(2, 100), pricedSpec(3, 100), pricedSpec(0, 100)},
	} {
		if _, err := e.SubmitBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := e.metrics.Submitted.Load(); got != 9 {
		t.Fatalf("the planner took %d requests, want 9", got)
	}
	if got := e.metrics.Rejected.Load(); got != 2 {
		t.Fatalf("the planner refused %d requests, want 2", got)
	}
	h := e.metrics.IntakeLatencySnapshot()
	if h.Count != 9 {
		t.Fatalf("intake latency counted %d requests, want the 9 admitted", h.Count)
	}
	for i, c := range h.Counts {
		if c > h.Count || (i > 0 && c < h.Counts[i-1]) {
			t.Fatalf("bucket counts %v are not cumulative under the count %d", h.Counts, h.Count)
		}
	}
}
