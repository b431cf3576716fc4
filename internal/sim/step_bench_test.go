package sim

import (
	"math/rand"
	"slices"
	"testing"

	"mecoffload/internal/core"
	"mecoffload/internal/dist"
	"mecoffload/internal/mec"
)

// BenchmarkStepFlood prices one flooded slot without HTTP around it: each
// slot files 500 arrivals as keys on a 4-station mesh, every one able to
// wait four slots, so about 2 000 requests are pending when Step runs and
// DynamicRR admits a handful. Only Step is timed; the filing and the
// compaction that keeps the arrays at the live set are not.
func BenchmarkStepFlood(b *testing.B) {
	const arrivals, compactEvery = 500, 8
	net := liveTestNetwork(b, 4)
	eng, err := NewLiveEngine(net, rand.New(rand.NewSource(1)), 0)
	if err != nil {
		b.Fatal(err)
	}
	eng.SetBuilder(func(_ int, k Key) *mec.Request {
		d, err := dist.NewRateReward([]dist.Outcome{{Rate: k.ExpectedRate, Prob: 1, Reward: 10 * k.ExpectedRate}})
		if err != nil {
			panic(err)
		}
		return &mec.Request{Tasks: k.Tasks, DeadlineMS: k.DeadlineMS, DurationSlots: 3, Dist: d}
	})
	sched, err := NewDynamicRR(DynamicRROptions{})
	if err != nil {
		b.Fatal(err)
	}
	tasks := []mec.Task{{Name: "render", OutputKb: 100, WorkMS: 10}}
	rng := rand.New(rand.NewSource(65))
	res := &core.Result{Algorithm: sched.Name()}
	var pending, keep []int
	slot := 0
	step := func() {
		for a := 0; a < arrivals; a++ {
			k := Key{ArrivalSlot: slot, AccessStation: rng.Intn(4), DeadlineMS: 180 + 20*rng.Float64(), ExpectedRate: 30 + 20*rng.Float64(), Tasks: tasks}
			if err := eng.AppendKey(k); err != nil {
				b.Fatal(err)
			}
			res.Decisions = append(res.Decisions, core.Decision{RequestID: len(res.Decisions), Station: -1})
			pending = append(pending, len(res.Decisions)-1)
		}
		b.StartTimer()
		pending, _, err = eng.Step(sched, res, slot, pending)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		slot++
		if slot%compactEvery == 0 {
			keep = append(keep[:0], pending...)
			for _, ru := range eng.active {
				keep = append(keep, ru.req)
			}
			slices.Sort(keep)
			if pending, err = eng.Compact(keep, res, pending); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	for slot < 2*compactEvery { // past the first expiries and departures
		step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.ReportMetric(float64(len(pending)), "pending")
}
