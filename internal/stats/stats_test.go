package stats

import (
	"math"
	"strings"
	"testing"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 || s.Variance() != 0 || s.StdErr() != 0 {
		t.Fatal("zero-value summary should report zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("n = %d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", s.Mean())
	}
	// Unbiased sample variance of this classic dataset is 32/7.
	if math.Abs(s.Variance()-32.0/7) > 1e-12 {
		t.Fatalf("variance = %v, want %v", s.Variance(), 32.0/7)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	if s.CI95() <= 0 {
		t.Fatal("CI95 should be positive for varied data")
	}
}

func TestSummarySingleObservation(t *testing.T) {
	var s Summary
	s.Add(3.5)
	if s.Mean() != 3.5 || s.Variance() != 0 || s.Min() != 3.5 || s.Max() != 3.5 {
		t.Fatalf("single-observation summary wrong: %+v", s)
	}
}

// TestMergeMatchesSequential: merging partial summaries must equal feeding
// all observations into one summary.
func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {-10, 1}, {110, 5},
		{12.5, 1.5}, // interpolated
	}
	for _, tc := range cases {
		if got := Percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("P%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestMeanSum(t *testing.T) {
	if Sum(nil) != 0 {
		t.Fatal("Sum(nil) != 0")
	}
	xs := []float64{1, 2, 3.5}
	if got := Sum(xs); got != 6.5 {
		t.Fatalf("sum = %v", got)
	}
	var s Summary
	for _, x := range xs {
		s.Add(x)
	}
	if got, want := s.Mean(), Sum(xs)/float64(len(xs)); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Summary mean %v, want Sum/n = %v", got, want)
	}
}

func TestSummaryString(t *testing.T) {
	var s Summary
	s.Add(1)
	s.Add(3)
	if got := s.String(); got == "" {
		t.Fatal("String should not be empty")
	}
}

func TestHistogramBasics(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 1.9, 2, 5, 9.9, -3, 42, math.NaN()} {
		h.Add(x)
	}
	if h.N() != 7 { // NaN ignored
		t.Fatalf("n = %d, want 7", h.N())
	}
	counts := h.Counts()
	// bins: [0,2): {0, 1.9, -3 clamped} = 3; [2,4): {2} = 1; [4,6): {5} = 1;
	// [6,8): 0; [8,10): {9.9, 42 clamped} = 2.
	want := []int{3, 1, 1, 0, 2}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
	lo, hi := h.BinRange(1)
	if lo != 2 || hi != 4 {
		t.Fatalf("bin 1 range [%v, %v)", lo, hi)
	}
	if s := h.String(); !strings.Contains(s, "#") {
		t.Fatal("rendering has no bars")
	}
	// Counts must be a copy.
	counts[0] = 99
	if h.Counts()[0] == 99 {
		t.Fatal("Counts leaked internal state")
	}
}

func TestHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(5, 5, 3); err == nil {
		t.Error("want error for empty range")
	}
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Error("want error for zero bins")
	}
	if _, err := NewHistogram(math.NaN(), 1, 2); err == nil {
		t.Error("want error for NaN bound")
	}
}
