package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mecoffload/internal/dist"
	"mecoffload/internal/mec"
)

// referenceTaskMigrator is newTaskMigrator as it stood while it scanned
// the whole decision list and asked a predicate which requests may donate:
// the first request with the strictly highest realized rate wins.
func referenceTaskMigrator(n *mec.Network, reqs []*mec.Request, res *Result, used []float64, slotLenMS float64, eligible func(int) bool) migrator {
	return func(station, slot int, passUsed func(int) float64) bool {
		donor := -1
		donorRate := -1.0
		for j := range res.Decisions {
			d := &res.Decisions[j]
			if !d.Admitted || d.Evicted {
				continue
			}
			if eligible != nil && !eligible(j) {
				continue
			}
			out, ok := reqs[j].Realized()
			if !ok {
				continue
			}
			onStation := false
			for _, st := range d.TaskStations {
				if st == station {
					onStation = true
					break
				}
			}
			if !onStation {
				continue
			}
			if out.Rate > donorRate {
				donor, donorRate = j, out.Rate
			}
		}
		if donor < 0 {
			return false
		}
		return migrateOneTask(n, reqs[donor], &res.Decisions[donor], station, used, slotLenMS)
	}
}

// referenceRoundAssignments is roundAssignments as it stood while it
// walked every request index and drew for each one holding variables.
func referenceRoundAssignments(vars []slotVar, byReq [][]int, y []float64, reqs []*mec.Request, rng *rand.Rand, denom float64) []tentative {
	var pre []tentative
	for j := range reqs {
		if len(byReq[j]) == 0 {
			continue
		}
		u := rng.Float64()
		acc := 0.0
		for _, idx := range byReq[j] {
			acc += y[idx] / denom
			if u < acc {
				sv := vars[idx]
				pre = append(pre, tentative{req: j, station: sv.station, slot: sv.slot, rate: reqs[j].ExpectedRate()})
				break
			}
		}
	}
	return pre
}

// cloneDecisions deep-copies a decision list, task placements included.
func cloneDecisions(ds []Decision) []Decision {
	out := slices.Clone(ds)
	for j := range out {
		out[j].TaskStations = slices.Clone(out[j].TaskStations)
	}
	return out
}

// TestTaskMigratorMatchesFullScan: a migrator handed the batch's index
// list, in shuffled order, moves exactly the task the full scan with a
// membership predicate moves. The decided backlog around the batch is
// large and mostly admitted too (the compacted index space a live engine
// runs on), realized rates tie often (two outcomes per request), and
// every station is tried on the same state.
func TestTaskMigratorMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	net, err := mec.RandomNetwork(6, 3000, 3600, rng)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dist.NewRateReward([]dist.Outcome{{Rate: 30, Prob: 0.5, Reward: 400}, {Rate: 45, Prob: 0.5, Reward: 600}})
	if err != nil {
		t.Fatal(err)
	}
	migrated, ties := 0, 0
	for trial := 0; trial < 200; trial++ {
		backlog := 20 + rng.Intn(200)
		reqs := make([]*mec.Request, backlog)
		res := &Result{Decisions: make([]Decision, backlog)}
		for j := range reqs {
			tasks := make([]mec.Task, 1+rng.Intn(3))
			for k := range tasks {
				tasks[k] = mec.Task{Name: "t", OutputKb: 64, WorkMS: float64(5 + rng.Intn(3)*5)}
			}
			reqs[j] = &mec.Request{ID: j, AccessStation: rng.Intn(6), Tasks: tasks, DeadlineMS: 200 + 400*rng.Float64(), Dist: d}
			res.Decisions[j] = Decision{RequestID: j, Station: -1}
			if rng.Intn(4) == 0 {
				continue // never admitted
			}
			dec := &res.Decisions[j]
			dec.Admitted = true
			dec.Evicted = rng.Intn(8) == 0
			dec.TaskStations = make([]int, len(tasks))
			for k := range tasks {
				dec.TaskStations[k] = rng.Intn(6)
			}
			dec.Station = dec.TaskStations[0]
			if rng.Intn(6) > 0 {
				reqs[j].Realize(rng)
			}
		}
		batch := rng.Perm(backlog)[:1+rng.Intn(min(backlog, 24))]
		inBatch := make([]bool, backlog)
		for _, j := range batch {
			inBatch[j] = true
		}
		used := make([]float64, net.NumStations())
		for i := range used {
			used[i] = net.Capacity(i) * rng.Float64()
		}
		for station := 0; station < net.NumStations(); station++ {
			wantRes := &Result{Decisions: cloneDecisions(res.Decisions)}
			wantUsed := slices.Clone(used)
			want := referenceTaskMigrator(net, reqs, wantRes, wantUsed, 50, func(j int) bool { return inBatch[j] })(station, 1, nil)
			gotRes := &Result{Decisions: cloneDecisions(res.Decisions)}
			gotUsed := slices.Clone(used)
			got := newTaskMigrator(net, reqs, gotRes, gotUsed, 50, batch)(station, 1, nil)
			label := fmt.Sprintf("trial %d station %d", trial, station)
			if got != want || !reflect.DeepEqual(gotRes.Decisions, wantRes.Decisions) || !slices.Equal(gotUsed, wantUsed) {
				t.Fatalf("%s: migrated %v, full scan %v (or the ledgers differ)", label, got, want)
			}
			if want {
				migrated++
			}
			// Count stations where two batch donors tie at the top rate.
			top, count := -1.0, 0
			for _, j := range batch {
				dec := res.Decisions[j]
				out, ok := reqs[j].Realized()
				if !dec.Admitted || dec.Evicted || !ok || !slices.Contains(dec.TaskStations, station) {
					continue
				}
				switch {
				case out.Rate > top:
					top, count = out.Rate, 1
				case out.Rate == top:
					count++
				}
			}
			if count > 1 {
				ties++
			}
		}
	}
	if migrated < 100 || ties < 100 {
		t.Fatalf("%d migrations, %d tied donors: the generator lost its coverage", migrated, ties)
	}
}

// TestRoundAssignmentsMatchesFullScan runs rounding passes over one slot
// scratch — the shuffled active sets of a live engine, and now and then a
// request slice shorter than the last one, as after a compaction — and
// requires two things after every merge: no request outside the pass holds
// a variable (reset cleared everything the previous pass left), and the
// draws made over the pass's sorted request list before the solve round
// exactly as the scan of every index drawing after it does, rng stream
// included.
func TestRoundAssignmentsMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	net := diffNetwork(t, rng, 4, 3)
	all := diffRequests(t, rng, net, 400)
	sc := new(slotScratch)
	drawn := 0
	for pass := 0; pass < 120; pass++ {
		reqs := all
		if pass%5 == 4 {
			reqs = all[:40+rng.Intn(100)] // a compacted index space
		}
		active := rng.Perm(len(reqs))[:1+rng.Intn(min(len(reqs), 30))]
		used := make([]float64, net.NumStations())
		for i := range used {
			used[i] = 0.6 * rng.Float64() * net.Capacity(i)
		}
		opts := lpOptions{
			active:  active,
			capOf:   func(i int) float64 { return net.Capacity(i) - used[i] },
			slotMHz: net.SlotMHz(),
		}
		seed := rng.Int63()
		wantRng, gotRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		if err := solveDecomposed(net, reqs, opts, solveCfg{rng: gotRng, denom: 4}, sc, &sc.merged); err != nil {
			t.Fatal(err)
		}
		m := &sc.merged
		for j := range m.byReq {
			if len(m.byReq[j]) > 0 && !slices.Contains(active, j) {
				t.Fatalf("pass %d: request %d outside the pass holds variables %v", pass, j, m.byReq[j])
			}
		}
		want := referenceRoundAssignments(m.vars, m.byReq, m.y, reqs, wantRng, 4)
		got := roundAssignments(m, reqs, sc.draws, 4, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: pre %v, full scan %v", pass, got, want)
		}
		if g, w := gotRng.Int63(), wantRng.Int63(); g != w {
			t.Fatalf("pass %d: the two walks drew a different number of times", pass)
		}
		drawn += len(want)
	}
	if drawn < 200 {
		t.Fatalf("only %d tentative assignments drawn: the generator lost its coverage", drawn)
	}
}
