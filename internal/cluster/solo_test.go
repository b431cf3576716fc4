package cluster_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mecoffload/internal/cluster"
	"mecoffload/internal/mec"
	"mecoffload/internal/rnd"
	"mecoffload/internal/serve"
)

// candidateRule is the home-shard rule read off the candidate list, as the
// router applies it to every spec whose access station leaves a choice:
// SpecCandidates, then the shard owning every candidate, else the access
// station's owner when it owns one, else the owner of the smallest; no
// candidate homes on the access station's owner. The spec is then taken
// as homeSpec gives it to that shard.
func candidateRule(c *cluster.Cluster, net *mec.Network, owner []int, spec serve.RequestSpec) (int, serve.RequestSpec, error) {
	cands, err := serve.SpecCandidates(net, spec, nil)
	if err != nil {
		return 0, spec, err
	}
	access := owner[spec.AccessStation]
	home := access
	var span []int
	if len(cands) > 0 {
		home = owner[cands[0]]
		if slices.ContainsFunc(cands, func(st int) bool { return owner[st] != home }) {
			span = cands
			if slices.ContainsFunc(cands, func(st int) bool { return owner[st] == access }) {
				home = access
			}
		}
	}
	return home, c.HomeSpec(home, spec, span), nil
}

// soloSpec draws a spec for access station st: mostly valid, with rates
// from easily served to unservable and deadlines from a hop to the whole
// network, and one in four refused by checkSpec.
func soloSpec(rng *rand.Rand, st int) serve.RequestSpec {
	spec := serve.RequestSpec{
		AccessStation: st,
		DeadlineMS:    []float64{0, 25, 60, 120, 400}[rng.Intn(5)],
		DurationSlots: rng.Intn(8),
		Outcomes: []serve.OutcomeSpec{
			{RateMBs: []float64{20, 40, 90, 150, 1e6}[rng.Intn(5)], Prob: 0.5, Reward: 200},
			{RateMBs: 30, Prob: 0.5, Reward: float64(rng.Intn(3)) * 100},
		},
	}
	if rng.Intn(3) == 0 {
		spec.Tasks = []serve.TaskSpec{{Name: "render", OutputKb: 64, WorkMS: float64(rng.Intn(60))}}
	}
	if rng.Intn(4) == 0 {
		switch rng.Intn(4) {
		case 0:
			spec.DurationSlots = -1
		case 1:
			spec.Outcomes[1].Prob = 0.2 // total mass 0.7
		case 2:
			spec.Tasks = []serve.TaskSpec{{Name: "render", OutputKb: 64, WorkMS: -5}}
		case 3:
			spec.DeadlineMS = math.NaN()
		}
	}
	return spec
}

// TestSoloRouteMatchesCandidateRule: a request arriving at a solo station
// is routed without a candidate list, and that is exactly what the
// candidate rule decides. On islands, bridged islands and a connected mesh
// at 1, 2 and 4 shards, under outages, from every access station (and two
// out of range), over random and refused specs, the router returns the
// candidate rule's shard, the spec as homeSpec hands it to that shard, and
// SpecCandidates' error. Stations are solo everywhere at one shard and on
// islands, and nowhere on the bridged islands or the mesh at more.
func TestSoloRouteMatchesCandidateRule(t *testing.T) {
	mesh, err := mec.RandomNetwork(20, 3000, 3600, rnd.New(42, "topology"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		net     *mec.Network
		anySolo bool // at more than one shard
	}{
		{"islands", islandNetwork(t, 4, 2), true},
		{"bridged", bridgedNetwork(t, 4, 2), false},
		{"mesh", mesh, false},
	} {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				net := tc.net
				n := net.NumStations()
				parts, err := cluster.Partition(net, shards)
				if err != nil {
					t.Fatal(err)
				}
				owner := make([]int, n)
				for k, part := range parts {
					for _, st := range part {
						owner[st] = k
					}
				}
				c, err := cluster.New(parityConfig(net, shards))
				if err != nil {
					t.Fatal(err)
				}
				defer func() { _ = c.Stop() }()
				for st := 0; st < n; st++ {
					if want := shards == 1 || tc.anySolo; c.Solo(st) != want {
						t.Fatalf("station %d: solo %v, want %v", st, c.Solo(st), want)
					}
				}

				rng := rand.New(rand.NewSource(int64(shards)))
				var scattered []int
				for st := 0; st < n; st++ {
					if rng.Intn(3) == 0 {
						scattered = append(scattered, st)
					}
				}
				var solo, listed, refused int
				for _, down := range [][]int{nil, scattered, parts[len(parts)-1]} {
					net.ResetCapacityScales()
					for _, st := range down {
						if err := net.SetCapacityScale(st, 0); err != nil {
							t.Fatal(err)
						}
					}
					for st := -1; st <= n; st++ {
						for i := 0; i < 12; i++ {
							spec := soloSpec(rng, st)
							shard, homed, err := c.Place(spec)
							var wantShard int
							var wantSpec serve.RequestSpec
							var wantErr error
							if st < 0 || st >= n {
								wantErr = serve.ValidateSpec(net, spec)
							} else {
								wantShard, wantSpec, wantErr = candidateRule(c, net, owner, spec)
							}
							if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
								t.Fatalf("%+v (down %v): error %v, want %v", spec, down, err, wantErr)
							}
							switch {
							case err != nil:
								refused++
								continue
							case c.Solo(st):
								solo++
							default:
								listed++
							}
							if shard != wantShard || !reflect.DeepEqual(homed, wantSpec) {
								t.Fatalf("%+v (down %v): routed to shard %d as %+v, want shard %d as %+v",
									spec, down, shard, homed, wantShard, wantSpec)
							}
						}
					}
				}
				net.ResetCapacityScales()
				t.Logf("solo %d, candidate list %d, refused %d", solo, listed, refused)
				if refused == 0 || (solo == 0) == (shards == 1 || tc.anySolo) || (listed == 0) != (shards == 1 || tc.anySolo) {
					t.Fatalf("solo %d, candidate list %d, refused %d: a path went unexercised", solo, listed, refused)
				}
			})
		}
	}
}
