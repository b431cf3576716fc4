package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mecoffload/internal/mec"
	"mecoffload/internal/workload"
)

// referenceHooks is admissionHooks plus the finish step the offline loop
// used to run after its passes, and counters of what each hook did.
type referenceHooks struct {
	admissionHooks
	finish func()
	// migrated, split and distributed count the migrations that freed
	// capacity, the overflows the splitter placed, and the requests the
	// final distribution pass admitted.
	migrated, split, distributed int
}

// referenceRunRounding is the offline rounding loop Appro and Heu ran
// before they shared roundingLoop, kept as the reference that loop must
// reproduce. The warm-start chain it carried is dropped: it solves cold.
func referenceRunRounding(n *mec.Network, reqs []*mec.Request, rng *rand.Rand, opts ApproOptions, name string, mkHooks func(*Result, []float64) *referenceHooks) (*Result, *referenceHooks, error) {
	if n == nil {
		return nil, nil, ErrNilNetwork
	}
	if len(reqs) == 0 {
		return nil, nil, ErrNoRequests
	}
	if opts.RoundingDenominator == 0 {
		opts.RoundingDenominator = 4
	}
	start := time.Now()

	res := &Result{Algorithm: name, Decisions: make([]Decision, len(reqs))}
	for j := range res.Decisions {
		res.Decisions[j] = Decision{RequestID: j, Station: -1}
	}

	used := make([]float64, n.NumStations()) // realized MHz per station
	hooks := &referenceHooks{}
	if mkHooks != nil {
		hooks = mkHooks(res, used)
	}

	sc := new(slotScratch)
	undecided := make([]int, len(reqs))
	for j := range undecided {
		undecided[j] = j
	}
	sc.reach.fill(n, reqs, undecided, nil, mec.DefaultSlotLengthMS)
	maxPasses := opts.Passes
	if maxPasses <= 0 {
		maxPasses = maxAutoPasses
	}

	slotMHz := n.SlotMHz()
	for pass := 0; pass < maxPasses && len(undecided) > 0; pass++ {
		if pass > 0 {
			if half := slotMHz / 2; half >= n.SlotMHz()/8 {
				slotMHz = half
			}
		}
		capOf := func(i int) float64 { return n.Capacity(i) - used[i] }
		err := solveDecomposed(n, reqs, lpOptions{
			active:       undecided,
			capOf:        capOf,
			slotMHz:      slotMHz,
			slotLengthMS: mec.DefaultSlotLengthMS,
			reach:        &sc.reach,
		}, solveCfg{pass: pass}, sc, &sc.merged)
		if err != nil {
			return nil, nil, err
		}
		if pass == 0 {
			res.ExpectedLPBound = sc.merged.obj
		}
		if len(sc.merged.y) == 0 {
			break
		}

		m := &sc.merged
		pre := referenceRoundAssignments(m.vars, m.byReq, m.y, reqs, rng, opts.RoundingDenominator)
		admitted := admitSlotBySlot(n, reqs, pre, rng, mec.DefaultSlotLengthMS, slotMHz, nil, res, hooks.admissionHooks, used, nil, sc)
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

	if hooks.finish != nil {
		hooks.finish()
	}
	Evaluate(n, reqs, res, rng)
	res.Runtime = time.Since(start)
	return res, hooks, nil
}

// referenceHeu is Heu as it stood over referenceRunRounding: the
// migrator, the overflow splitter and the final distribution pass built
// as closures over the run's result and ledger, each counted.
func referenceHeu(n *mec.Network, reqs []*mec.Request, rng *rand.Rand, opts ApproOptions) (*Result, *referenceHooks, error) {
	all := make([]int, len(reqs))
	for j := range all {
		all[j] = j
	}
	mk := func(res *Result, used []float64) *referenceHooks {
		h := &referenceHooks{}
		migrate := newTaskMigrator(n, reqs, res, used, mec.DefaultSlotLengthMS, all)
		overflow := newOverflowSplitter(n, reqs, res, used, mec.DefaultSlotLengthMS)
		h.migrate = func(station, slot int, passUsed func(int) float64) bool {
			ok := migrate(station, slot, passUsed)
			if ok {
				h.migrated++
			}
			return ok
		}
		h.overflow = func(req, station int) bool {
			ok := overflow(req, station)
			if ok {
				h.split++
			}
			return ok
		}
		h.finish = func() {
			before := countAdmitted(res, all)
			distributionPass(n, reqs, all, res, used, rng, mec.DefaultSlotLengthMS, nil)
			h.distributed = countAdmitted(res, all) - before
		}
		return h
	}
	return referenceRunRounding(n, reqs, rng, opts, "Heu", mk)
}

// requireSameResult fails unless two results agree on every field but the
// wall-clock Runtime, floats by their bits, and the two rngs they drew
// from stand at the same point of their streams.
func requireSameResult(t *testing.T, label string, got, want *Result, gotRNG, wantRNG *rand.Rand) {
	t.Helper()
	if got.Algorithm != want.Algorithm || got.Admitted != want.Admitted || got.Served != want.Served ||
		math.Float64bits(got.TotalReward) != math.Float64bits(want.TotalReward) ||
		math.Float64bits(got.ExpectedLPBound) != math.Float64bits(want.ExpectedLPBound) {
		t.Fatalf("%s: %s admitted %d served %d reward %v bound %v, want %s %d %d %v %v", label,
			got.Algorithm, got.Admitted, got.Served, got.TotalReward, got.ExpectedLPBound,
			want.Algorithm, want.Admitted, want.Served, want.TotalReward, want.ExpectedLPBound)
	}
	for j := range want.Decisions {
		if !reflect.DeepEqual(got.Decisions[j], want.Decisions[j]) {
			t.Fatalf("%s: decision %d = %+v, want %+v", label, j, got.Decisions[j], want.Decisions[j])
		}
	}
	if g, w := gotRNG.Int63(), wantRNG.Int63(); g != w {
		t.Fatalf("%s: the rng streams parted (next draw %d, reference %d)", label, g, w)
	}
}

// TestRoundingLoopMatchesReference is the differential behind Appro and
// Heu sharing ScheduleBatch's pass loop: on seeded instances, with the
// literal single pass and the iterated default, and at rounding
// denominators 2, 4 and 8, both equal the loop they used to run decision
// for decision, bound and rng stream included. On at least one instance
// Heu's migrator moved a task, its overflow splitter placed a request
// that did not fit, and its final distribution pass admitted one.
func TestRoundingLoopMatchesReference(t *testing.T) {
	type shape struct{ stations, requests int }
	shapes := []shape{{6, 40}, {8, 120}, {10, 260}}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:2]
	}
	allFired := false
	for _, sh := range shapes {
		for _, seed := range seeds {
			rng := rand.New(rand.NewSource(seed))
			net, err := mec.RandomNetwork(sh.stations, 3000, 3600, rng)
			if err != nil {
				t.Fatal(err)
			}
			reqs, err := workload.Generate(workload.Config{
				NumRequests: sh.requests, NumStations: sh.stations, GeometricRates: true,
			}, rng)
			if err != nil {
				t.Fatal(err)
			}
			for _, passes := range []int{0, 1} {
				for _, denom := range []float64{2, 4, 8} {
					opts := ApproOptions{Passes: passes, RoundingDenominator: denom}
					label := fmt.Sprintf("%d stations %d requests seed %d passes %d denominator %v",
						sh.stations, sh.requests, seed, passes, denom)
					runSeed := 100 * seed

					workload.Reset(reqs)
					wantRNG := rand.New(rand.NewSource(runSeed))
					want, _, err := referenceRunRounding(net, reqs, wantRNG, opts, "Appro", nil)
					if err != nil {
						t.Fatal(err)
					}
					workload.Reset(reqs)
					gotRNG := rand.New(rand.NewSource(runSeed))
					got, err := Appro(net, reqs, gotRNG, opts)
					if err != nil {
						t.Fatal(err)
					}
					requireSameResult(t, "Appro "+label, got, want, gotRNG, wantRNG)

					workload.Reset(reqs)
					wantRNG = rand.New(rand.NewSource(runSeed + 1))
					want, hooks, err := referenceHeu(net, reqs, wantRNG, opts)
					if err != nil {
						t.Fatal(err)
					}
					workload.Reset(reqs)
					gotRNG = rand.New(rand.NewSource(runSeed + 1))
					got, err = Heu(net, reqs, gotRNG, HeuOptions{Passes: passes, RoundingDenominator: denom})
					if err != nil {
						t.Fatal(err)
					}
					requireSameResult(t, "Heu "+label, got, want, gotRNG, wantRNG)
					if hooks.migrated > 0 && hooks.split > 0 && hooks.distributed > 0 {
						allFired = true
					}
				}
			}
		}
	}
	if !allFired {
		t.Fatal("no Heu run had its migrator, overflow splitter and distribution pass all fire: the hooks went unexercised")
	}
}
