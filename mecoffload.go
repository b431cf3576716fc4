// Package mecoffload is a Go reproduction of "Online Learning Algorithms
// for Offloading Augmented Reality Requests with Uncertain Demands in
// MECs" (Xu et al., ICDCS 2021).
//
// It provides:
//
//   - the paper's offline algorithms for the reward maximization problem
//     with non-preemptive AR requests — the exact ILP solution (Exact),
//     the 1/8-approximation via a resource-slot-indexed LP relaxation with
//     randomized rounding (Appro), and the task-migration heuristic (Heu);
//   - the online learning algorithm DynamicRR for the dynamic reward
//     maximization problem, a Lipschitz-bandit threshold learner with
//     successive elimination driving per-slot LP-PT scheduling;
//   - the three comparison baselines of the paper's evaluation (OCORP,
//     Greedy, HeuKKT), in offline and online variants;
//   - every substrate required to run them from scratch: a GT-ITM-style
//     topology generator, an MEC network model, AR workload and trace
//     generators, a two-phase simplex LP solver with branch and bound,
//     multi-armed bandit policies, and a time-slotted online simulator;
//   - the experiment harness that regenerates every figure of the paper's
//     evaluation section.
//
// # Quickstart
//
//	rng := rand.New(rand.NewSource(42))
//	scn, _ := mecoffload.NewScenario(mecoffload.ScenarioConfig{
//		Stations: 20, Requests: 150,
//	}, rng)
//	res, _ := scn.RunOffline(mecoffload.Heu, rng)
//	fmt.Printf("reward=%.0f served=%d/%d\n",
//		res.TotalReward, res.Served, len(res.Decisions))
//
// The subpackages under internal/ contain the full implementation; this
// package re-exports the surface a downstream user needs. See DESIGN.md
// for the system inventory and EXPERIMENTS.md for the reproduced results.
package mecoffload

import (
	"io"
	"math/rand"

	"mecoffload/internal/core"
	"mecoffload/internal/mec"
	"mecoffload/internal/scenario"
	"mecoffload/internal/sim"
	"mecoffload/internal/workload"
)

// Algorithm identifies one of the paper's algorithms or baselines.
type Algorithm string

// Algorithms runnable through Scenario.
const (
	// Exact solves ILP-RM by branch and bound (small instances only).
	Exact Algorithm = "Exact"
	// Appro is Algorithm 1: LP relaxation + randomized rounding (1/8-approx).
	Appro Algorithm = "Appro"
	// Heu is Algorithm 2: Appro with task migration and distribution.
	Heu Algorithm = "Heu"
	// DynamicRR is Algorithm 3: the online Lipschitz-bandit scheduler.
	DynamicRR Algorithm = "DynamicRR"
	// OCORP, Greedy, and HeuKKT are the paper's comparison baselines.
	OCORP  Algorithm = "OCORP"
	Greedy Algorithm = "Greedy"
	HeuKKT Algorithm = "HeuKKT"
)

// Re-exported result types.
type (
	// Result is an evaluated algorithm run; see core.Result.
	Result = core.Result
	// Decision is the per-request outcome; see core.Decision.
	Decision = core.Decision
	// Network is the MEC network model; see the mec package.
	Network = mec.Network
	// Request is one AR offloading request.
	Request = mec.Request
)

// ErrUnknownAlgorithm reports an Algorithm this facade cannot run in the
// asked mode. It is the algorithm table's own error, so the experiment
// harness's ErrUnknownAlgorithm is the same value.
var ErrUnknownAlgorithm = sim.ErrUnknownAlgorithm

// ScenarioConfig describes a synthetic evaluation scenario with the
// paper's defaults for everything not set.
type ScenarioConfig struct {
	// Stations is the number of base stations (default 20).
	Stations int
	// Requests is the workload size (default 150, the paper's maximum
	// concurrent load).
	Requests int
	// MinCapacityMHz and MaxCapacityMHz bound station capacities
	// (default [3000, 3600]).
	MinCapacityMHz, MaxCapacityMHz float64
	// ArrivalHorizon spreads arrivals over this many slots for online
	// runs (default 100). Offline runs place all arrivals at slot 0.
	ArrivalHorizon int
	// Workload overrides fine-grained workload parameters; the zero value
	// uses the paper defaults with geometric rate distributions.
	Workload workload.Config
}

// Scenario is a generated (network, workload) pair ready to run any of the
// algorithms, replaying the same requests across algorithms.
type Scenario struct {
	// Net is the generated MEC network.
	Net *mec.Network
	// Offline holds the workload with all arrivals at slot 0.
	Offline []*mec.Request
	// Online holds the same workload with arrivals spread over the
	// horizon.
	Online []*mec.Request
	// Horizon is the online simulation length in slots.
	Horizon int
}

// NewScenario generates a scenario from cfg using rng.
func NewScenario(cfg ScenarioConfig, rng *rand.Rand) (*Scenario, error) {
	if cfg.Stations == 0 {
		cfg.Stations = 20
	}
	if cfg.Requests == 0 {
		cfg.Requests = 150
	}
	if cfg.MinCapacityMHz == 0 && cfg.MaxCapacityMHz == 0 {
		cfg.MinCapacityMHz, cfg.MaxCapacityMHz = 3000, 3600
	}
	if cfg.ArrivalHorizon == 0 {
		cfg.ArrivalHorizon = 100
	}
	net, err := mec.RandomNetwork(cfg.Stations, cfg.MinCapacityMHz, cfg.MaxCapacityMHz, rng)
	if err != nil {
		return nil, err
	}
	wcfg := cfg.Workload
	wcfg.NumRequests = cfg.Requests
	wcfg.NumStations = cfg.Stations
	if !wcfg.GeometricRates {
		wcfg.GeometricRates = true
	}
	offline, err := workload.Generate(wcfg, rng)
	if err != nil {
		return nil, err
	}
	online := workload.Clone(offline)
	for _, r := range online {
		r.ArrivalSlot = rng.Intn(cfg.ArrivalHorizon)
	}
	sortByArrival(online)
	return &Scenario{
		Net:     net,
		Offline: offline,
		Online:  online,
		Horizon: cfg.ArrivalHorizon + 20,
	}, nil
}

// RunOffline executes an offline algorithm on a fresh realization of the
// scenario's workload and audits the result.
func (s *Scenario) RunOffline(algo Algorithm, rng *rand.Rand) (*Result, error) {
	return sim.RunOffline(string(algo), s.Net, s.Offline, rng, true)
}

// RunOnline executes an online algorithm over the scenario's arrival
// stream and audits the resulting timeline.
func (s *Scenario) RunOnline(algo Algorithm, rng *rand.Rand) (*Result, error) {
	sched, err := sim.NewScheduler(string(algo))
	if err != nil {
		return nil, err
	}
	res, _, err := sim.Simulate(s.Net, s.Online, sched, rng, sim.RunOptions{Horizon: s.Horizon, Audit: true})
	return res, err
}

// WriteJSON serializes the scenario (network plus the online workload,
// whose arrival slots carry the timing information) as a reproducible
// artifact; ReadScenarioJSON restores it.
func (s *Scenario) WriteJSON(w io.Writer) error {
	return scenario.Write(w, s.Net, s.Online)
}

// ReadScenarioJSON restores a scenario written by WriteJSON. The stored
// arrival slots become the online workload; the offline variant is the
// same workload with every arrival at slot 0.
func ReadScenarioJSON(r io.Reader) (*Scenario, error) {
	net, online, err := scenario.Read(r)
	if err != nil {
		return nil, err
	}
	offline := workload.Clone(online)
	maxArrival := 0
	for _, req := range offline {
		if req.ArrivalSlot > maxArrival {
			maxArrival = req.ArrivalSlot
		}
		req.ArrivalSlot = 0
	}
	return &Scenario{
		Net:     net,
		Offline: offline,
		Online:  online,
		Horizon: maxArrival + 20,
	}, nil
}

// OfflineAlgorithms lists the algorithms RunOffline accepts.
func OfflineAlgorithms() []Algorithm { return algorithmsOf(sim.OfflineAlgorithms()) }

// OnlineAlgorithms lists the algorithms RunOnline accepts.
func OnlineAlgorithms() []Algorithm { return algorithmsOf(sim.OnlineAlgorithms()) }

func algorithmsOf(names []string) []Algorithm {
	out := make([]Algorithm, len(names))
	for i, n := range names {
		out[i] = Algorithm(n)
	}
	return out
}

func sortByArrival(reqs []*mec.Request) {
	for i := 1; i < len(reqs); i++ {
		for j := i; j > 0 && reqs[j].ArrivalSlot < reqs[j-1].ArrivalSlot; j-- {
			reqs[j], reqs[j-1] = reqs[j-1], reqs[j]
		}
	}
	for i, r := range reqs {
		r.ID = i
	}
}
