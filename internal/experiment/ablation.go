package experiment

import (
	"math/rand"

	"mecoffload/internal/bandit"
	"mecoffload/internal/core"
	"mecoffload/internal/mec"
	"mecoffload/internal/sim"
	"mecoffload/internal/topology"
	"mecoffload/internal/workload"
)

// AblationRounding (A1) sweeps the rounding denominator of Appro: the
// paper's analysis fixes 1/4 (Lemma 2's occupancy bound); this quantifies
// the reward cost of more conservative rounding and the feasibility risk
// of more aggressive rounding.
func AblationRounding(opts Options) (*Table, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	tbl := &Table{
		ID:         "ablation-rounding",
		Title:      "Ablation A1: Appro rounding denominator",
		XLabel:     "denominator",
		Algorithms: []string{AlgoAppro},
	}
	xs := []float64{2, 4, 8}
	err := sweep(opts, tbl, xs,
		func(x float64, rep int) (*instance, error) {
			xi := indexOf(xs, x)
			return genInstance(opts.Stations, offlineWorkload(opts.Requests), instSeed(opts.Seed, 21, xi, rep))
		},
		func(inst *instance, algo string, x float64, rep int) (*core.Result, error) {
			xi := indexOf(xs, x)
			workload.Reset(inst.reqs)
			rng := rand.New(rand.NewSource(runSeed(opts.Seed, 21, xi, rep, 0)))
			res, err := core.Appro(inst.net, inst.reqs, rng, core.ApproOptions{RoundingDenominator: x})
			if err != nil {
				return nil, err
			}
			if !opts.SkipAudit {
				if err := core.Audit(inst.net, inst.reqs, res); err != nil {
					return nil, err
				}
			}
			return res, nil
		})
	return tbl, err
}

// AblationKappa (A2) sweeps the discretization granularity kappa of
// DynamicRR's threshold interval: too few arms leave discretization error
// (the T*eta*eps term), too many slow down elimination (the sqrt(kappa T)
// term) — Theorem 3's trade-off made measurable.
func AblationKappa(opts Options) (*Table, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	tbl := &Table{
		ID:         "ablation-kappa",
		Title:      "Ablation A2: DynamicRR threshold arms (kappa)",
		XLabel:     "kappa",
		Algorithms: []string{AlgoDynamicRR},
	}
	xs := []float64{2, 4, 8, 16, 32}
	err := sweep(opts, tbl, xs,
		func(x float64, rep int) (*instance, error) {
			xi := indexOf(xs, x)
			return genInstance(opts.Stations, onlineWorkload(regretRequests, opts.Horizon),
				instSeed(opts.Seed, 22, xi, rep))
		},
		func(inst *instance, algo string, x float64, rep int) (*core.Result, error) {
			xi := indexOf(xs, x)
			return opts.simulate(inst, runSeed(opts.Seed, 22, xi, rep, 0))(sim.NewDynamicRR(sim.DynamicRROptions{Kappa: int(x)}))
		})
	return tbl, err
}

// Arm policies compared by AblationPolicy.
const (
	policySE     = "SuccessiveElim"
	policyUCB1   = "UCB1"
	policyEps    = "EpsilonGreedy"
	policyFixed  = "FixedMid"
	policyKappaA = 8
)

// policyStream numbers each A3 policy's realization stream. The numbers
// belong to the policies, not to column positions, so dropping or adding
// a column never changes another column's draws.
var policyStream = map[string]int{policySE: 0, policyUCB1: 1, policyEps: 2, policyFixed: 4}

// AblationPolicy (A3) swaps DynamicRR's arm-selection policy: the paper's
// successive elimination against UCB1, epsilon-greedy, and a fixed
// mid-range threshold (no learning).
func AblationPolicy(opts Options) (*Table, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	tbl := &Table{
		ID:         "ablation-policy",
		Title:      "Ablation A3: DynamicRR bandit policy",
		XLabel:     "requests",
		Algorithms: []string{policySE, policyUCB1, policyEps, policyFixed},
	}
	xs := []float64{float64(regretRequests)}
	err := sweep(opts, tbl, xs,
		func(x float64, rep int) (*instance, error) {
			return genInstance(opts.Stations, onlineWorkload(int(x), opts.Horizon),
				instSeed(opts.Seed, 23, 0, rep))
		},
		func(inst *instance, algo string, x float64, rep int) (*core.Result, error) {
			seed := runSeed(opts.Seed, 23, 0, rep, policyStream[algo])
			pol, err := newPolicy(algo, seed)
			if err != nil {
				return nil, err
			}
			return opts.simulate(inst, seed)(sim.NewDynamicRR(sim.DynamicRROptions{Kappa: policyKappaA, Policy: pol}))
		})
	return tbl, err
}

func newPolicy(name string, seed int64) (bandit.Policy, error) {
	switch name {
	case policySE:
		return bandit.NewSuccessiveElimination(policyKappaA)
	case policyUCB1:
		return bandit.NewUCB1(policyKappaA)
	case policyEps:
		return bandit.NewEpsilonGreedy(policyKappaA, 0.1, rand.New(rand.NewSource(seed*17+3)))
	case policyFixed:
		return bandit.NewFixed(policyKappaA, policyKappaA/2)
	default:
		return nil, ErrUnknownAlgorithm
	}
}

// Reward models compared by AblationRewardModel.
const (
	rewardProportional = "UnitPrice"
	rewardIndependent  = "Independent"
)

// AblationRewardModel (A6) contrasts Section VI-A's unit-price rewards
// (reward = unit * rate, correlated with demand) with the paper's stated
// model of demand-independent rewards (Section I, challenge 2). With
// independent rewards, per-MHz value varies widely across requests, so
// the reward-aware LP selection of Appro/Heu matters more and the gap
// over the reward-blind baselines widens.
func AblationRewardModel(opts Options) (*Table, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	tbl := &Table{
		ID:         "ablation-rewardmodel",
		Title:      "Ablation A6: unit-price vs demand-independent rewards (Heu vs OCORP)",
		XLabel:     "model", // 0 = unit price, 1 = independent
		Algorithms: []string{AlgoHeu, AlgoOCORP, AlgoGreedy},
	}
	xs := []float64{0, 1}
	err := sweep(opts, tbl, xs,
		func(x float64, rep int) (*instance, error) {
			xi := indexOf(xs, x)
			cfg := offlineWorkload(opts.Requests)
			cfg.IndependentRewards = x == 1
			return genInstance(opts.Stations, cfg, instSeed(opts.Seed, 26, xi, rep))
		},
		func(inst *instance, algo string, x float64, rep int) (*core.Result, error) {
			xi := indexOf(xs, x)
			rng := rand.New(rand.NewSource(runSeed(opts.Seed, 26, xi, rep, algoIndex(tbl, algo))))
			return sim.RunOffline(algo, inst.net, inst.reqs, rng, !opts.SkipAudit)
		})
	return tbl, err
}

// Discretization variants compared by AblationDiscretization.
const (
	discFixed8  = "Fixed-k8"
	discFixed32 = "Fixed-k32"
	discZooming = "Zooming"
)

// AblationDiscretization (A5) compares the paper's fixed epsilon-grid
// discretization of the threshold interval against the zooming algorithm's
// adaptive discretization (Slivkins [25]): the fixed grid pays the
// T*eta*epsilon term of Theorem 3, zooming refines itself around the
// optimum instead.
func AblationDiscretization(opts Options) (*Table, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	tbl := &Table{
		ID:         "ablation-discretization",
		Title:      "Ablation A5: fixed vs adaptive (zooming) threshold discretization",
		XLabel:     "requests",
		Algorithms: []string{discFixed8, discFixed32, discZooming},
	}
	xs := []float64{float64(regretRequests)}
	err := sweep(opts, tbl, xs,
		func(x float64, rep int) (*instance, error) {
			return genInstance(opts.Stations, onlineWorkload(int(x), opts.Horizon),
				instSeed(opts.Seed, 25, 0, rep))
		},
		func(inst *instance, algo string, x float64, rep int) (*core.Result, error) {
			seed := runSeed(opts.Seed, 25, 0, rep, algoIndex(tbl, algo))
			var dopts sim.DynamicRROptions
			switch algo {
			case discFixed8:
				dopts = sim.DynamicRROptions{Kappa: 8}
			case discFixed32:
				dopts = sim.DynamicRROptions{Kappa: 32}
			case discZooming:
				z, err := bandit.NewZooming(200, 1200, 0)
				if err != nil {
					return nil, err
				}
				dopts = sim.DynamicRROptions{Learner: z}
			default:
				return nil, ErrUnknownAlgorithm
			}
			return opts.simulate(inst, seed)(sim.NewDynamicRR(dopts))
		})
	return tbl, err
}

// AblationSlotSize (A4) sweeps the resource-slot capacity C_l: the grid on
// which the LP relaxation indexes resources. Finer slots approximate
// capacity better but enlarge the LP; coarser slots strand residual
// capacity.
func AblationSlotSize(opts Options) (*Table, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	tbl := &Table{
		ID:         "ablation-slotsize",
		Title:      "Ablation A4: resource-slot size C_l",
		XLabel:     "slotMHz",
		Algorithms: []string{AlgoAppro, AlgoHeu},
	}
	xs := []float64{250, 500, 1000, 1800}
	err := sweep(opts, tbl, xs,
		func(x float64, rep int) (*instance, error) {
			xi := indexOf(xs, x)
			seed := instSeed(opts.Seed, 24, xi, rep)
			rng := rand.New(rand.NewSource(seed))
			topo, err := topology.Waxman(topology.Config{N: opts.Stations}, rng)
			if err != nil {
				return nil, err
			}
			stations := make([]mec.BaseStation, opts.Stations)
			for i := range stations {
				stations[i] = mec.BaseStation{
					CapacityMHz: DefaultMinCapMHz + rng.Float64()*(DefaultMaxCapMHz-DefaultMinCapMHz),
					SpeedFactor: 0.8 + rng.Float64()*0.4,
				}
			}
			net, err := mec.NewNetwork(mec.NetworkConfig{Stations: stations, Topo: topo, SlotMHz: x})
			if err != nil {
				return nil, err
			}
			cfg := offlineWorkload(opts.Requests)
			cfg.NumStations = opts.Stations
			reqs, err := workload.Generate(cfg, rng)
			if err != nil {
				return nil, err
			}
			return &instance{net: net, reqs: reqs}, nil
		},
		func(inst *instance, algo string, x float64, rep int) (*core.Result, error) {
			xi := indexOf(xs, x)
			rng := rand.New(rand.NewSource(runSeed(opts.Seed, 24, xi, rep, algoIndex(tbl, algo))))
			return sim.RunOffline(algo, inst.net, inst.reqs, rng, !opts.SkipAudit)
		})
	return tbl, err
}
