package core

import (
	"fmt"
	"math/rand"
	"testing"

	"mecoffload/internal/dist"
	"mecoffload/internal/mec"
)

// churnBatch builds a churn_mesh-shaped slot: count two-outcome requests
// with the given deadline spread over a stations-station random mesh that
// is already partly occupied. The deadline sets how many stations each
// request reaches, and with that the LP's width.
func churnBatch(t testing.TB, stations, count int, deadlineMS float64) (*mec.Network, []*mec.Request, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	net, err := mec.RandomNetwork(stations, 3000, 3600, rng)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]*mec.Request, count)
	for j := range reqs {
		d, err := dist.NewRateReward([]dist.Outcome{
			{Rate: 30 + 5*rng.Float64(), Prob: 0.5, Reward: 400 + 50*rng.Float64()},
			{Rate: 45 + 5*rng.Float64(), Prob: 0.5, Reward: 600 + 50*rng.Float64()},
		})
		if err != nil {
			t.Fatal(err)
		}
		reqs[j] = &mec.Request{
			ID:            j,
			AccessStation: rng.Intn(stations),
			Tasks:         []mec.Task{{Name: "render", OutputKb: 100, WorkMS: 30}},
			DeadlineMS:    deadlineMS,
			Dist:          d,
		}
	}
	used := make([]float64, stations)
	for i := range used {
		used[i] = 0.4 * rng.Float64() * net.Capacity(i)
	}
	return net, reqs, used
}

// BenchmarkBuildLP prices the slot LP's builder alone and beside the
// solve it feeds, one table and one loop: the shapes the end-to-end
// benchmark builds most (churn_mesh's ~117 variables x 41 rows,
// ingest_flood's ~52 x 21) and churn_mesh with four times the requests,
// whose build must cost about four times as much, not sixteen. Each
// iteration rebuilds in place over one scratch, unnamed, as
// solveDecomposed does on the slot path; allocs/op of the build rows is
// the builder's steady-state garbage and must read 0. On a 2-vCPU shared
// Xeon, build / build+solve read 8.5 / 24 µs, 3.0 / 10 µs and 36 / 123 µs
// for the three shapes (10 / 28, 3.4 / 10.7 and 40 / 134 µs while the
// problem stored its matrix by column and the conversion transposed it).
func BenchmarkBuildLP(b *testing.B) {
	shapes := []struct {
		name               string
		stations, requests int
		deadlineMS         float64
	}{
		{"churn_mesh", 20, 12, 38},    // 128 x 53
		{"ingest_flood", 4, 12, 38},   // 48 x 21
		{"churn_mesh_x4", 20, 48, 38}, // 554 x 89: four times the requests
	}
	modes := []struct {
		name  string
		solve bool
	}{{"build", false}, {"build+solve", true}}
	for _, shape := range shapes {
		net, reqs, used := churnBatch(b, shape.stations, shape.requests, shape.deadlineMS)
		rt := float64(len(reqs))
		opts := lpOptions{
			capOf:       func(i int) float64 { return net.Capacity(i) - used[i] },
			shareCapFor: func(i int) float64 { return net.Capacity(i) / rt / net.CUnit() },
			scratch:     new(buildScratch),
		}
		var y []float64
		for _, mode := range modes {
			b.Run(fmt.Sprintf("shape=%s/%s", shape.name, mode.name), func(b *testing.B) {
				b.ReportAllocs()
				var m *lpModel
				for i := 0; i <= b.N; i++ {
					if i == 1 {
						b.ResetTimer() // iteration 0 sized the scratch
					}
					var err error
					opts.vars = opts.vars[:0]
					if m, err = buildLP(net, reqs, opts); err != nil {
						b.Fatal(err)
					}
					opts.vars = m.vars
					for j := range m.byReq {
						m.byReq[j] = m.byReq[j][:0]
					}
					opts.byReq = m.byReq
					if mode.solve {
						if y, _, _, err = m.solveWarm(nil, y); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ReportMetric(float64(m.prob.NumVars()), "vars")
				b.ReportMetric(float64(m.prob.NumConstraints()), "rows")
			})
		}
	}
}
