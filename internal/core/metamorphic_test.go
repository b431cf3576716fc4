package core

import (
	"math"
	"math/rand"
	"testing"

	"mecoffload/internal/bandit"
	"mecoffload/internal/dist"
	"mecoffload/internal/lp"
	"mecoffload/internal/mec"
	"mecoffload/internal/topology"
	"mecoffload/internal/workload"
)

// metamorphicNet builds a network whose topology is reproducible from
// topoSeed and whose capacities and resource-slot size are scaled by s —
// the transformed twin of the s=1 network.
func metamorphicNet(t *testing.T, stations int, topoSeed int64, s float64) *mec.Network {
	t.Helper()
	topo, err := topology.Waxman(topology.Config{N: stations}, rand.New(rand.NewSource(topoSeed)))
	if err != nil {
		t.Fatal(err)
	}
	caps := rand.New(rand.NewSource(topoSeed + 1))
	bss := make([]mec.BaseStation, stations)
	for i := range bss {
		bss[i] = mec.BaseStation{
			CapacityMHz: (3000 + 600*caps.Float64()) * s,
			SpeedFactor: 0.8 + 0.4*caps.Float64(),
		}
	}
	n, err := mec.NewNetwork(mec.NetworkConfig{
		Stations: bss,
		Topo:     topo,
		SlotMHz:  mec.DefaultSlotMHz * s,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// scaleDists returns shallow clones of the requests with every outcome's
// rate multiplied by rateScale and reward by rewardScale.
func scaleDists(t *testing.T, reqs []*mec.Request, rateScale, rewardScale float64) []*mec.Request {
	t.Helper()
	out := make([]*mec.Request, len(reqs))
	for j, r := range reqs {
		c := r.CloneShallow()
		outs := r.Dist.Outcomes()
		for k := range outs {
			outs[k].Rate *= rateScale
			outs[k].Reward *= rewardScale
		}
		d, err := dist.NewRateReward(outs)
		if err != nil {
			t.Fatalf("request %d: %v", j, err)
		}
		c.Dist = d
		out[j] = c
	}
	return out
}

// lpObjective builds and solves the full relaxation LP (Section IV-A)
// and returns its optimal objective.
func lpObjective(t *testing.T, n *mec.Network, reqs []*mec.Request) float64 {
	t.Helper()
	m, err := buildLP(n, reqs, lpOptions{})
	if err != nil {
		t.Fatalf("buildLP: %v", err)
	}
	x := make([]float64, m.std.NumVars())
	status, obj, err := m.std.Solve(x, lp.SolveOptions{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if status != lp.StatusOptimal {
		t.Fatalf("status %v, want optimal", status)
	}
	return obj
}

func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestLPObjectivePermutationInvariant: the relaxation's optimum cannot
// depend on the order requests are presented in — the LP is a set
// optimization, so permuting the request slice (re-identifying requests
// by position) must leave the objective unchanged.
func TestLPObjectivePermutationInvariant(t *testing.T) {
	rounds := 20
	if testing.Short() {
		rounds = 5
	}
	for k := 0; k < rounds; k++ {
		seed := int64(7000 + k)
		net := metamorphicNet(t, 3+k%3, seed, 1)
		reqs, err := workload.Generate(workload.Config{
			NumRequests: 12 + k%8,
			NumStations: net.NumStations(),
			RateSupport: 1 + k%4,
		}, rand.New(rand.NewSource(seed+2)))
		if err != nil {
			t.Fatal(err)
		}
		base := lpObjective(t, net, reqs)

		perm := rand.New(rand.NewSource(seed + 3)).Perm(len(reqs))
		shuffled := make([]*mec.Request, len(reqs))
		for to, from := range perm {
			c := reqs[from].CloneShallow()
			c.ID = to
			shuffled[to] = c
		}
		got := lpObjective(t, net, shuffled)
		if !relClose(base, got, 1e-6) {
			t.Fatalf("round %d: objective changed under permutation: %.9g vs %.9g", k, base, got)
		}
	}
}

// TestLPObjectiveScaleInvariant: multiplying every capacity, the
// resource-slot size, and every outcome rate by the same factor is a pure
// change of units on the resource axis — rewards are untouched, so the
// relaxation's optimum must not move.
func TestLPObjectiveScaleInvariant(t *testing.T) {
	rounds := 12
	if testing.Short() {
		rounds = 4
	}
	scales := []float64{0.5, 2, 3.5}
	for k := 0; k < rounds; k++ {
		seed := int64(7100 + k)
		stations := 3 + k%3
		net := metamorphicNet(t, stations, seed, 1)
		reqs, err := workload.Generate(workload.Config{
			NumRequests: 10 + k%6,
			NumStations: stations,
			RateSupport: 2 + k%3,
		}, rand.New(rand.NewSource(seed+2)))
		if err != nil {
			t.Fatal(err)
		}
		base := lpObjective(t, net, reqs)
		s := scales[k%len(scales)]
		scaledNet := metamorphicNet(t, stations, seed, s)
		scaledReqs := scaleDists(t, reqs, s, 1)
		got := lpObjective(t, scaledNet, scaledReqs)
		if !relClose(base, got, 1e-6) {
			t.Fatalf("round %d: objective changed under x%.1f resource rescale: %.9g vs %.9g", k, s, base, got)
		}
	}
}

// TestLPObjectiveRewardLinear: scaling every outcome reward by s scales
// the (linear) objective by exactly s while leaving feasibility alone.
func TestLPObjectiveRewardLinear(t *testing.T) {
	rounds := 12
	if testing.Short() {
		rounds = 4
	}
	for k := 0; k < rounds; k++ {
		seed := int64(7200 + k)
		stations := 3 + k%3
		net := metamorphicNet(t, stations, seed, 1)
		reqs, err := workload.Generate(workload.Config{
			NumRequests: 10 + k%6,
			NumStations: stations,
		}, rand.New(rand.NewSource(seed+2)))
		if err != nil {
			t.Fatal(err)
		}
		base := lpObjective(t, net, reqs)
		s := 1.5 + float64(k%4)
		got := lpObjective(t, net, scaleDists(t, reqs, 1, s))
		if !relClose(base*s, got, 1e-6) {
			t.Fatalf("round %d: objective not linear in rewards: %.9g * %.1f vs %.9g", k, base, s, got)
		}
	}
}

// TestDominatedArmNeverSurvives: an arm whose reward is strictly
// dominated (0 against the best arm's 1, zero noise) must be eliminated
// by successive elimination, and the dominating arm must stay active and
// be reported best.
func TestDominatedArmNeverSurvives(t *testing.T) {
	const arms, best, dominated = 8, 3, 6
	se, err := bandit.NewSuccessiveElimination(arms)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 600; round++ {
		arm := se.Select()
		reward := 0.0
		if arm == best {
			reward = 1.0
		}
		se.Update(arm, reward)
	}
	if se.Active(dominated) {
		t.Fatalf("dominated arm %d still active after 600 rounds (%d arms active)", dominated, se.NumActive())
	}
	if !se.Active(best) {
		t.Fatalf("dominating arm %d was eliminated", best)
	}
	if se.BestArm() != best {
		t.Fatalf("BestArm() = %d, want %d", se.BestArm(), best)
	}
}
