// Quickstart: generate a paper-default MEC scenario, run every offline
// algorithm on the same workload, and print the comparison the paper's
// Fig. 3 plots at one x-point.
package main

import (
	"fmt"
	"math/rand"
	"os"

	"mecoffload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	rng := rand.New(rand.NewSource(42))

	// 20 base stations on a GT-ITM-style topology, 200 AR requests with
	// uncertain (rate, reward) distributions — the paper's defaults.
	scn, err := mecoffload.NewScenario(mecoffload.ScenarioConfig{
		Stations: 20,
		Requests: 200,
	}, rng)
	if err != nil {
		return err
	}

	fmt.Printf("network: %d stations, %.0f MHz total capacity\n",
		scn.Net.NumStations(), scn.Net.TotalCapacity())
	fmt.Printf("workload: %d requests, expected demand %.0f MHz\n\n",
		len(scn.Offline), expectedDemand(scn))

	fmt.Printf("%-8s  %10s  %8s  %10s  %10s\n",
		"algo", "reward($)", "served", "latency", "runtime")
	for _, algo := range mecoffload.OfflineAlgorithms() {
		if algo == mecoffload.Exact {
			continue // branch and bound is for small instances only
		}
		res, err := scn.RunOffline(algo, rand.New(rand.NewSource(7)))
		if err != nil {
			return fmt.Errorf("%s: %w", algo, err)
		}
		fmt.Printf("%-8s  %10.0f  %5d/%d  %8.1fms  %10s\n",
			res.Algorithm, res.TotalReward, res.Served, len(res.Decisions),
			res.AvgLatencyMS(), res.Runtime.Round(1000000))
	}
	return nil
}

func expectedDemand(scn *mecoffload.Scenario) float64 {
	total := 0.0
	for _, r := range scn.Offline {
		total += scn.Net.RateToMHz(r.ExpectedRate())
	}
	return total
}
