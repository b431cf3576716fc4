package core

import (
	"math/rand"
	"sort"

	"mecoffload/internal/mec"
)

// HeuOptions tunes Algorithm 2.
type HeuOptions struct {
	// SlotLengthMS converts waiting slots into milliseconds (default
	// mec.DefaultSlotLengthMS).
	SlotLengthMS float64
	// RoundingDenominator mirrors ApproOptions (default 4).
	RoundingDenominator float64
	// Passes mirrors ApproOptions: 1 = single literal pass, 0 = iterate
	// until no progress.
	Passes int
	// Warm mirrors ApproOptions.Warm: per-pass LP warm-start bases
	// carried across structurally similar runs.
	Warm *WarmCache
}

// Heu is Algorithm 2: the efficient heuristic for the reward maximization
// problem without the consolidation assumption. It pre-assigns requests
// exactly like Appro, but when the occupancy test at slot l of station
// bs_i fails, it migrates one task of the already-admitted request with
// the maximum realized data rate on bs_i to the closest base station that
// can host it without violating the request's latency requirement or the
// destination's capacity, then re-tests admission (Algorithm 2 steps
// 11-14).
func Heu(n *mec.Network, reqs []*mec.Request, rng *rand.Rand, opts HeuOptions) (*Result, error) {
	a := ApproOptions{
		SlotLengthMS:        opts.SlotLengthMS,
		RoundingDenominator: opts.RoundingDenominator,
		Passes:              opts.Passes,
		Warm:                opts.Warm,
	}
	a.fill()
	mk := func(res *Result, used []float64) admissionHooks {
		return admissionHooks{
			migrate:  newTaskMigrator(n, reqs, res, used, a.SlotLengthMS, nil),
			overflow: newOverflowSplitter(n, reqs, res, used, a.SlotLengthMS),
			finish: func() {
				distributionPass(n, reqs, nil, res, used, rng, a.SlotLengthMS, nil)
			},
		}
	}
	return runRounding(n, reqs, rng, a, "Heu", mk)
}

// distributionPass admits still-rejected requests by distributing their
// tasks over the fragmented residual capacity the consolidated rounding
// passes cannot reach (no single station fits a whole request any more,
// but several can share one). Requests are tried in decreasing expected
// reward; realized demands that overflow are evicted just like in the
// main sweep. active limits the candidates (nil means every request);
// waitOf supplies per-request waiting slots in the online setting.
func distributionPass(n *mec.Network, reqs []*mec.Request, active []int, res *Result, used []float64, rng *rand.Rand, slotLenMS float64, waitOf func(int) int) {
	if active == nil {
		active = make([]int, len(reqs))
		for j := range active {
			active[j] = j
		}
	}
	order := make([]int, 0, len(active))
	for _, j := range active {
		if !res.Decisions[j].Admitted {
			order = append(order, j)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := reqs[order[a]].ExpectedReward(), reqs[order[b]].ExpectedReward()
		if ra != rb {
			return ra > rb
		}
		return order[a] < order[b]
	})

	for _, j := range order {
		r := reqs[j]
		wait := 0
		if waitOf != nil {
			wait = waitOf(j)
		}
		k := len(r.Tasks)
		totalWork := 0.0
		for _, t := range r.Tasks {
			totalWork += t.WorkMS
		}
		eDemand := n.RateToMHz(r.ExpectedRate())
		planned := make([]int, k)
		delta := make(map[int]float64)
		feasible := true
		for ti := 0; ti < k; ti++ {
			share := 1.0 / float64(k)
			if totalWork > 0 {
				share = r.Tasks[ti].WorkMS / totalWork
			}
			need := eDemand * share
			// Nearest-first keeps backhaul hops (and thus latency) low.
			planned[ti] = -1
			for _, st := range append([]int{r.AccessStation}, n.NeighborsByDistance(r.AccessStation)...) {
				if !fitsWithin(used[st]+delta[st], need, n.Capacity(st)) {
					continue
				}
				planned[ti] = st
				delta[st] += need
				break
			}
			if planned[ti] == -1 {
				feasible = false
				break
			}
		}
		if !feasible {
			continue
		}
		if latencyOf(n, r, planned, wait, slotLenMS) > r.DeadlineMS {
			continue
		}

		d := &res.Decisions[j]
		d.Admitted = true
		d.Station = planned[0]
		d.Slot = 1
		d.WaitSlots = wait
		d.TaskStations = planned
		d.LatencyMS = latencyOf(n, r, planned, wait, slotLenMS)

		// Reveal the rate and commit realized shares, or evict.
		out := r.Realize(rng)
		realized := make(map[int]float64, len(delta))
		fits := true
		for ti, st := range planned {
			realized[st] += demandShare(n, r, ti, out.Rate)
		}
		for st, add := range realized {
			if !fitsWithin(used[st], add, n.Capacity(st)) {
				fits = false
				break
			}
		}
		if !fits {
			d.Evicted = true
			continue
		}
		for st, add := range realized {
			used[st] += add
		}
	}
}

// newOverflowSplitter returns the distribution hook that realizes the
// paper's removal of the consolidation assumption: when a request's
// realized demand does not fit its pre-assigned station, its tasks are
// distributed — largest first — to the nearest stations with spare
// capacity until the remainder fits, instead of evicting the request.
func newOverflowSplitter(n *mec.Network, reqs []*mec.Request, res *Result, used []float64, slotLenMS float64) overflowHandler {
	return func(req, station int) bool {
		r := reqs[req]
		d := &res.Decisions[req]
		out, ok := r.Realized()
		if !ok {
			return false
		}
		demand := n.RateToMHz(out.Rate)

		// Shares per task, and tasks in decreasing work order.
		shares := make([]float64, len(r.Tasks))
		totalWork := 0.0
		for _, t := range r.Tasks {
			totalWork += t.WorkMS
		}
		order := make([]int, len(r.Tasks))
		for k := range order {
			order[k] = k
			share := 1.0 / float64(len(r.Tasks))
			if totalWork > 0 {
				share = r.Tasks[k].WorkMS / totalWork
			}
			shares[k] = demand * share
		}
		for a := 0; a < len(order); a++ {
			for b := a + 1; b < len(order); b++ {
				if shares[order[b]] > shares[order[a]] {
					order[a], order[b] = order[b], order[a]
				}
			}
		}

		placement := append([]int(nil), d.TaskStations...)
		delta := make(map[int]float64) // tentative extra load per station
		remaining := demand
		neighbors := n.NeighborsByDistance(station)
		for _, k := range order {
			if fitsWithin(used[station], remaining, n.Capacity(station)) {
				break
			}
			for _, dest := range neighbors {
				if !fitsWithin(used[dest]+delta[dest], shares[k], n.Capacity(dest)) {
					continue
				}
				old := placement[k]
				placement[k] = dest
				if latencyOf(n, r, placement, d.WaitSlots, slotLenMS) > r.DeadlineMS {
					placement[k] = old
					continue
				}
				delta[dest] += shares[k]
				remaining -= shares[k]
				break
			}
		}
		if !fitsWithin(used[station], remaining, n.Capacity(station)) {
			return false // could not shed enough; caller evicts
		}
		// Commit.
		used[station] += remaining
		for dest, add := range delta {
			used[dest] += add
		}
		d.TaskStations = placement
		d.LatencyMS = latencyOf(n, r, placement, d.WaitSlots, slotLenMS)
		return true
	}
}

// newTaskMigrator returns Algorithm 2's adjustment step as a migrator
// closure over the running result and the global occupancy ledger. When
// eligible is non-nil, only requests it accepts may donate a task — the
// online per-slot batches use this to avoid disturbing streams admitted in
// earlier slots, whose resource holds are already committed.
func newTaskMigrator(n *mec.Network, reqs []*mec.Request, res *Result, used []float64, slotLenMS float64, eligible func(int) bool) migrator {
	return func(station, slot int, passUsed func(int) float64) bool {
		// Step 11: among requests already admitted and served on this
		// station, pick the one with the maximum realized data rate that
		// still executes at least one task here.
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

// migrateOneTask moves one task of the donor request off "station" to the
// closest feasible base station (Algorithm 2 step 13). Tasks are tried in
// decreasing demand share so one migration frees as much resource as
// possible; destinations are tried in increasing backhaul distance. It
// returns true when a migration happened.
func migrateOneTask(n *mec.Network, r *mec.Request, d *Decision, station int, used []float64, slotLenMS float64) bool {
	out, ok := r.Realized()
	if !ok {
		return false
	}
	demand := n.RateToMHz(out.Rate)
	totalWork := 0.0
	for _, t := range r.Tasks {
		totalWork += t.WorkMS
	}

	// This request's tasks on the congested station, in decreasing work
	// (== demand) share.
	var tasks []int
	for k, st := range d.TaskStations {
		if st == station {
			tasks = append(tasks, k)
		}
	}
	if len(tasks) == 0 {
		return false
	}
	for a := 0; a < len(tasks); a++ {
		for b := a + 1; b < len(tasks); b++ {
			if r.Tasks[tasks[b]].WorkMS > r.Tasks[tasks[a]].WorkMS {
				tasks[a], tasks[b] = tasks[b], tasks[a]
			}
		}
	}

	neighbors := n.NeighborsByDistance(station)
	for _, k := range tasks {
		share := 1.0 / float64(len(r.Tasks))
		if totalWork > 0 {
			share = r.Tasks[k].WorkMS / totalWork
		}
		moved := demand * share
		for _, dest := range neighbors {
			if !fitsWithin(used[dest], moved, n.Capacity(dest)) {
				continue
			}
			// Tentatively migrate and re-check the latency requirement.
			old := d.TaskStations[k]
			d.TaskStations[k] = dest
			lat := latencyOf(n, r, d.TaskStations, d.WaitSlots, slotLenMS)
			if lat > r.DeadlineMS {
				d.TaskStations[k] = old
				continue
			}
			d.LatencyMS = lat
			used[station] -= moved
			used[dest] += moved
			return true
		}
	}
	return false
}
