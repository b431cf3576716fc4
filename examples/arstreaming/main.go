// AR streaming: drive the online simulator with a bursty AR workload
// whose (rate, reward) distributions come from a synthetic Braud-style
// frame trace (64Kb JPEG frames at 90-120 fps), and watch DynamicRR's
// threshold learner work against the online baselines.
//
// This is the workload the paper's introduction motivates: web AR
// applications streaming camera frames into a render/track/world-model/
// recognize pipeline with a 200 ms end-to-end budget.
package main

import (
	"fmt"
	"math/rand"
	"os"

	"mecoffload"
	"mecoffload/internal/mec"
	"mecoffload/internal/sim"
	"mecoffload/internal/workload"
)

const (
	stations = 20
	users    = 400
	horizon  = 150
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "arstreaming: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(2026))
	net, err := mec.RandomNetwork(stations, 3000, 3600, rng)
	if err != nil {
		return err
	}
	reqs, err := traceWorkload(rng)
	if err != nil {
		return err
	}
	fmt.Printf("AR streaming scenario: %d users over %d slots (%.1f s), %d stations\n\n",
		users, horizon, float64(horizon)*mec.DefaultSlotLengthMS/1000, stations)

	for _, name := range sim.OnlineAlgorithms() {
		sched, err := sim.NewScheduler(name)
		if err != nil {
			return err
		}
		res, _, err := sim.Simulate(net, reqs, sched, rand.New(rand.NewSource(5)), sim.RunOptions{Horizon: horizon + 20, Audit: true})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("%-10s reward=$%-8.0f served=%3d/%d  avg latency=%5.1f ms\n",
			res.Algorithm, res.TotalReward, res.Served, len(reqs), res.AvgLatencyMS())

		if d, ok := sched.(*sim.DynamicRR); ok {
			printThresholds(d)
		}
	}
	return nil
}

// traceWorkload builds requests whose rate distributions are the empirical
// histograms of per-user synthetic capture traces, arriving in bursts
// (users joining a shared AR session in waves).
func traceWorkload(rng *rand.Rand) ([]*mecoffload.Request, error) {
	reqs := make([]*mecoffload.Request, 0, users)
	stages := workload.CanonicalPipeline()
	id := 0
	for wave := 0; wave < 5; wave++ {
		waveStart := wave * horizon / 5
		for u := 0; u < users/5; u++ {
			trace, err := workload.GenerateTrace(30, rng)
			if err != nil {
				return nil, err
			}
			d, err := trace.EmpiricalDistribution(5, 30, 50, 12, 15, rng)
			if err != nil {
				return nil, err
			}
			tasks := make([]mec.Task, len(stages))
			for k, st := range stages {
				tasks[k] = mec.Task{Name: st.Name, OutputKb: st.OutputKb, WorkMS: st.BaseWorkMS}
			}
			reqs = append(reqs, &mec.Request{
				ID:            id,
				ArrivalSlot:   waveStart + rng.Intn(5), // burst within the wave front
				AccessStation: rng.Intn(stations),
				Tasks:         tasks,
				DeadlineMS:    mec.DefaultDeadlineMS,
				DurationSlots: 20 + rng.Intn(40),
				Dist:          d,
			})
			id++
		}
	}
	// Arrival order must be non-decreasing for the engine.
	for i := 1; i < len(reqs); i++ {
		for j := i; j > 0 && reqs[j].ArrivalSlot < reqs[j-1].ArrivalSlot; j-- {
			reqs[j], reqs[j-1] = reqs[j-1], reqs[j]
		}
	}
	for i, r := range reqs {
		r.ID = i
	}
	return reqs, nil
}

func printThresholds(d *sim.DynamicRR) {
	lip := d.Bandit()
	if lip == nil {
		return
	}
	pol := lip.Policy()
	fmt.Printf("           learned thresholds (plays per arm):")
	for arm := 0; arm < pol.NumArms(); arm++ {
		fmt.Printf(" %.0fMHz:%d", lip.Value(arm), pol.Plays(arm))
	}
	fmt.Println()
}
