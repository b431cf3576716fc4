package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mecoffload/internal/mec"
	"mecoffload/internal/workload"
)

// solveAllStats is what referenceScheduleBatch saw of the components a
// draw-first pass would leave out: per pass, how many components there
// were and how many of them held a draw that can round.
type solveAllStats struct {
	// live counts the components, over every pass, with a draw below
	// (1+drawSlack)/denominator: the ones a draw-first pass looks up.
	live int
	// partial counts the passes where some component was dead and some
	// live, allDead the passes with components and none of them live.
	partial, allDead int
}

// referenceScheduleBatch is ScheduleBatch's pass loop as it stood before
// the rounding draws moved in front of the solve: every pass builds and
// solves every component, and only then draws, one uniform per request
// holding variables, in ascending request index. It runs without a
// decision cache or a warm cache. stats records which components the
// draws would have ruled out.
func referenceScheduleBatch(n *mec.Network, reqs []*mec.Request, res *Result, rng *rand.Rand, opts BatchOptions, stats *solveAllStats) (int, error) {
	if opts.SlotLengthMS == 0 {
		opts.SlotLengthMS = mec.DefaultSlotLengthMS
	}
	if opts.RoundingDenominator == 0 {
		opts.RoundingDenominator = 4
	}
	maxPasses := opts.Passes
	if maxPasses <= 0 {
		maxPasses = 4
	}
	used := opts.Used
	sc := new(slotScratch)
	var hooks admissionHooks
	if opts.Distribute {
		hooks = admissionHooks{
			migrate:  newTaskMigrator(n, reqs, res, used, opts.SlotLengthMS, opts.Active),
			overflow: newOverflowSplitter(n, reqs, res, used, opts.SlotLengthMS),
		}
	}
	undecided := slices.Clone(opts.Active)
	sc.reach.fill(n, reqs, opts.Active, opts.WaitSlots, opts.SlotLengthMS)
	totalAdmitted := 0
	slotMHz := n.SlotMHz()
	draws := make([]float64, len(reqs))
	for pass := 0; pass < maxPasses && len(undecided) > 0; pass++ {
		if pass > 0 {
			if half := slotMHz / 2; half >= n.SlotMHz()/8 {
				slotMHz = half
			}
		}
		var grid []float64
		if pass > 0 {
			grid = sc.fillGrid(n, used, slotMHz)
		}
		capOf := func(i int) float64 { return n.Capacity(i) - used[i] }
		err := solveDecomposed(n, reqs, lpOptions{
			active:       undecided,
			capOf:        capOf,
			slotMHz:      slotMHz,
			grid:         grid,
			shareCapFor:  opts.ShareCapMBs,
			waitSlots:    opts.WaitSlots,
			slotLengthMS: opts.SlotLengthMS,
			reach:        &sc.reach,
		}, solveCfg{pass: pass}, sc, &sc.merged)
		if err != nil {
			return totalAdmitted, err
		}
		m := &sc.merged
		if len(m.y) == 0 {
			break
		}
		var pre []tentative
		for j := range reqs {
			if len(m.byReq[j]) == 0 {
				continue
			}
			u := rng.Float64()
			draws[j] = u
			acc := 0.0
			for _, idx := range m.byReq[j] {
				acc += m.y[idx] / opts.RoundingDenominator
				if u < acc {
					sv := m.vars[idx]
					pre = append(pre, tentative{req: j, station: sv.station, slot: sv.slot, rate: reqs[j].ExpectedRate()})
					break
				}
			}
		}
		live := 0
		for _, c := range sc.comps {
			if slices.ContainsFunc(c.reqs, func(j int) bool { return draws[j] < (1+drawSlack)/opts.RoundingDenominator }) {
				live++
			}
		}
		stats.live += live
		switch {
		case live == 0:
			stats.allDead++
		case live < len(sc.comps):
			stats.partial++
		}
		admitted := admitSlotBySlot(n, reqs, pre, rng, opts.SlotLengthMS, slotMHz, grid, res, hooks, used, opts.WaitSlots, sc)
		totalAdmitted += admitted
		if admitted == 0 {
			break
		}
		next := undecided[:0]
		for _, j := range undecided {
			if !res.Decisions[j].Admitted {
				next = append(next, j)
			}
		}
		undecided = next
	}
	if opts.Distribute && len(undecided) > 0 {
		before := countAdmitted(res, undecided)
		distributionPass(n, reqs, undecided, res, used, rng, opts.SlotLengthMS, opts.WaitSlots)
		totalAdmitted += countAdmitted(res, undecided) - before
	}
	return totalAdmitted, nil
}

// drawFirstInstance is one network with its requests and the occupancy
// ledger the slots start from.
type drawFirstInstance struct {
	name string
	net  *mec.Network
	reqs []*mec.Request
	used []float64
}

// drawFirstInstances draws the shapes the differential runs: isolated
// stations and short chains, whose slot LPs split into many components
// of one to a few requests, and one meshed network whose requests all
// fall into one large component.
func drawFirstInstances(t *testing.T, rng *rand.Rand) []drawFirstInstance {
	var out []drawFirstInstance
	for _, sh := range []struct{ islands, per, requests int }{{10, 1, 16}, {6, 2, 20}, {4, 3, 24}} {
		net := diffNetwork(t, rng, sh.islands, sh.per)
		used := make([]float64, net.NumStations())
		for i := range used {
			used[i] = 0.5 * rng.Float64() * net.Capacity(i)
		}
		out = append(out, drawFirstInstance{
			name: fmt.Sprintf("%d islands of %d", sh.islands, sh.per),
			net:  net, reqs: diffRequests(t, rng, net, sh.requests), used: used,
		})
	}
	net, reqs, used := churnBatch(t, 12, 24, 200)
	out = append(out, drawFirstInstance{name: "one component", net: net, reqs: reqs, used: used})
	return out
}

// TestScheduleBatchMatchesSolveAllReference is the differential behind
// drawing before solving: ScheduleBatch, with and without a decision
// cache, leaves every component that no draw can round in out of the
// solve, and still equals the loop that solves every component and then
// draws — decisions with their task placements, the occupancy ledger bit
// for bit, and the rng's next draw. Slots repeat their wave with fresh
// seeds, so the cache replays as well as solves. The cache looks up
// exactly the components holding a draw below (1+10⁻⁶)/denominator; some
// passes leave one component out and solve another, and some leave every
// component out.
func TestScheduleBatchMatchesSolveAllReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var stats solveAllStats
	slots, replayed := 0, uint64(0)
	for _, inst := range drawFirstInstances(t, rng) {
		net, reqs := inst.net, inst.reqs
		for _, distribute := range []bool{false, true} {
			for _, denom := range []float64{1, 2, 4, 8} {
				inc := NewIncCache()
				var active []int
				for rep := 0; rep < 12; rep++ {
					if rep%3 == 0 {
						// A new wave; the next two slots repeat it.
						active = rng.Perm(len(reqs))[:1+rng.Intn(len(reqs))]
					}
					opts := BatchOptions{
						Active:              active,
						RoundingDenominator: denom,
						Distribute:          distribute,
						ShareCapMBs:         func(i int) float64 { return net.Capacity(i) / float64(len(active)) / net.CUnit() },
					}
					if rep%2 == 1 {
						opts.WaitSlots = func(j int) int { return j % 2 }
					}
					seed := rng.Int63()
					label := fmt.Sprintf("%s distribute %v denominator %v slot %d", inst.name, distribute, denom, rep)

					run := func(inc *IncCache) (*Result, []float64, *rand.Rand) {
						workload.Reset(reqs)
						res := newBatchResult(reqs)
						o := opts
						o.Used = slices.Clone(inst.used)
						o.Inc = inc
						r := rand.New(rand.NewSource(seed))
						if _, err := ScheduleBatch(net, reqs, res, r, o); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						return res, o.Used, r
					}
					workload.Reset(reqs)
					want := newBatchResult(reqs)
					wantUsed := slices.Clone(inst.used)
					wantRNG := rand.New(rand.NewSource(seed))
					ropts := opts
					ropts.Used = wantUsed
					before := stats.live
					if _, err := referenceScheduleBatch(net, reqs, want, wantRNG, ropts, &stats); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					wantNext := wantRNG.Float64()

					lookups := inc.Stats().CleanHits + inc.Stats().DirtySolves
					for _, c := range []*IncCache{nil, inc} {
						got, gotUsed, gotRNG := run(c)
						for j := range want.Decisions {
							if !reflect.DeepEqual(got.Decisions[j], want.Decisions[j]) {
								t.Fatalf("%s (cache %v): decision %d = %+v, solve-all reference %+v", label, c != nil, j, got.Decisions[j], want.Decisions[j])
							}
						}
						for i := range wantUsed {
							if math.Float64bits(gotUsed[i]) != math.Float64bits(wantUsed[i]) {
								t.Fatalf("%s (cache %v): station %d ledger %v, reference %v", label, c != nil, i, gotUsed[i], wantUsed[i])
							}
						}
						if g := gotRNG.Float64(); g != wantNext {
							t.Fatalf("%s (cache %v): the rng streams parted (next draw %v, reference %v)", label, c != nil, g, wantNext)
						}
					}
					if got, want := inc.Stats().CleanHits+inc.Stats().DirtySolves-lookups, uint64(stats.live-before); got != want {
						t.Fatalf("%s: the cache looked up %d components, %d held a draw that can round", label, got, want)
					}
					slots++
				}
				replayed += inc.Stats().CleanHits
			}
		}
	}
	t.Logf("%d slots, %d live components (%d replayed), %d passes partly skipped, %d passes wholly skipped",
		slots, stats.live, replayed, stats.partial, stats.allDead)
	if stats.partial == 0 || stats.allDead == 0 || replayed == 0 {
		t.Fatalf("%d passes left some component out, %d left every one out, %d components replayed: the differential went unexercised",
			stats.partial, stats.allDead, replayed)
	}
}

// TestOfflineBoundSolvesEveryComponent: offline, pass 0 solves every
// component whatever its draws, because its optimum is
// Result.ExpectedLPBound; only the later passes leave components out. On
// instances of many one-request components, where a pass-0 draw misses
// most of them, Appro and Heu equal the offline loop that solves before
// it draws — bound, decisions and rng stream.
func TestOfflineBoundSolvesEveryComponent(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 6; trial++ {
		net := diffNetwork(t, rng, 10, 1)
		reqs := diffRequests(t, rng, net, 30)
		for _, denom := range []float64{4, 8} {
			opts := ApproOptions{RoundingDenominator: denom}
			label := fmt.Sprintf("trial %d denominator %v", trial, denom)
			seed := rng.Int63()

			workload.Reset(reqs)
			wantRNG := rand.New(rand.NewSource(seed))
			want, _, err := referenceRunRounding(net, reqs, wantRNG, opts, "Appro", nil)
			if err != nil {
				t.Fatal(err)
			}
			workload.Reset(reqs)
			gotRNG := rand.New(rand.NewSource(seed))
			got, err := Appro(net, reqs, gotRNG, opts)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "Appro "+label, got, want, gotRNG, wantRNG)

			workload.Reset(reqs)
			wantRNG = rand.New(rand.NewSource(seed))
			want, _, err = referenceHeu(net, reqs, wantRNG, opts)
			if err != nil {
				t.Fatal(err)
			}
			workload.Reset(reqs)
			gotRNG = rand.New(rand.NewSource(seed))
			got, err = Heu(net, reqs, gotRNG, HeuOptions{RoundingDenominator: denom})
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "Heu "+label, got, want, gotRNG, wantRNG)
		}
	}
}
