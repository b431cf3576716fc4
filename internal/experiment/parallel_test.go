package experiment

import (
	"strings"
	"testing"
)

// csvSansRuntime renders a table as CSV with the wall-clock runtimeMS
// rows removed: runtime is the one metric the determinism contract
// cannot cover (it measures the machine, not the algorithm).
func csvSansRuntime(t *testing.T, tbl *Table) string {
	t.Helper()
	var b strings.Builder
	if err := tbl.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	var keep []string
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.Contains(line, ",runtimeMS,") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// TestSweepWorkerCountInvariance pins the parallel sweep's determinism
// contract: the same seed must yield a byte-identical results CSV at
// every worker count. Fig. 3 exercises the offline Appro/Heu rounding
// passes; Fig. 6 exercises the online path with per-slot LP
// decomposition inside DynamicRR.
func TestSweepWorkerCountInvariance(t *testing.T) {
	figs := []struct {
		name string
		run  func(Options) (*Table, error)
	}{
		{"fig3", Fig3},
		{"fig6", Fig6},
	}
	for _, fig := range figs {
		fig := fig
		t.Run(fig.name, func(t *testing.T) {
			var want string
			for _, workers := range []int{1, 2, 8} {
				tbl, err := fig.run(Options{Repetitions: 2, Seed: 123, Parallel: workers, SkipAudit: true})
				if err != nil {
					t.Fatal(err)
				}
				got := csvSansRuntime(t, tbl)
				if want == "" {
					want = got
					continue
				}
				if got != want {
					t.Fatalf("Parallel=%d CSV differs from Parallel=1", workers)
				}
			}
		})
	}
}
