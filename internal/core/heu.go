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
}

// Heu is Algorithm 2: the efficient heuristic for the reward maximization
// problem without the consolidation assumption. It pre-assigns requests
// exactly like Appro, but when the occupancy test at slot l of station
// bs_i fails, it migrates one task of the already-admitted request with
// the maximum realized data rate on bs_i to the closest base station that
// can host it without violating the request's latency requirement or the
// destination's capacity, then re-tests admission (Algorithm 2 steps
// 11-14). A request whose realized demand overflows its station sheds
// tasks to neighbours instead of being evicted, and after the last pass
// the requests still rejected are distributed over the residual capacity.
func Heu(n *mec.Network, reqs []*mec.Request, rng *rand.Rand, opts HeuOptions) (*Result, error) {
	return solveOffline(n, reqs, rng, "Heu", BatchOptions{
		SlotLengthMS:        opts.SlotLengthMS,
		RoundingDenominator: opts.RoundingDenominator,
		Passes:              opts.Passes,
		Distribute:          true,
	})
}

// distributionPass admits still-rejected requests by distributing their
// tasks over the fragmented residual capacity the consolidated rounding
// passes cannot reach (no single station fits a whole request any more,
// but several can share one). Requests are tried in decreasing expected
// reward; realized demands that overflow are evicted just like in the
// main sweep. active lists the candidates; waitOf supplies per-request
// waiting slots in the online setting (nil means no waiting).
func distributionPass(n *mec.Network, reqs []*mec.Request, active []int, res *Result, used []float64, rng *rand.Rand, slotLenMS float64, waitOf func(int) int) {
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

	var delta, realized stationLoads
	for _, j := range order {
		r := reqs[j]
		wait := 0
		if waitOf != nil {
			wait = waitOf(j)
		}
		k := len(r.Tasks)
		work, eRate := r.WorkMS(), r.ExpectedRate()
		neighbors := n.NeighborsByDistance(r.AccessStation)
		planned := make([]int, k)
		delta = delta[:0]
		feasible := true
		for ti := 0; ti < k; ti++ {
			need := n.TaskMHzOfWork(r, ti, eRate, work)
			// Nearest-first keeps backhaul hops (and thus latency) low: the
			// access station (c = -1), then its neighbours by distance.
			planned[ti] = -1
			for c := -1; c < len(neighbors) && planned[ti] < 0; c++ {
				st := r.AccessStation
				if c >= 0 {
					st = neighbors[c]
				}
				if fitsWithin(used[st]+delta.of(st), need, n.Capacity(st)) {
					planned[ti] = st
					delta = delta.add(st, need)
				}
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
		realized = realized[:0]
		for ti, st := range planned {
			realized = realized.add(st, n.TaskMHzOfWork(r, ti, out.Rate, work))
		}
		fits := true
		for _, l := range realized {
			if !fitsWithin(used[l.station], l.mhz, n.Capacity(l.station)) {
				fits = false
				break
			}
		}
		if !fits {
			d.Evicted = true
			continue
		}
		for _, l := range realized {
			used[l.station] += l.mhz
		}
	}
}

// newOverflowSplitter returns the distribution hook that realizes the
// paper's removal of the consolidation assumption: when a request's
// realized demand does not fit its pre-assigned station, its tasks are
// distributed — largest first — to the nearest stations with spare
// capacity until the remainder fits, instead of evicting the request.
func newOverflowSplitter(n *mec.Network, reqs []*mec.Request, res *Result, used []float64, slotLenMS float64) overflowHandler {
	var delta stationLoads // tentative extra load per station
	return func(req, station int) bool {
		r := reqs[req]
		d := &res.Decisions[req]
		out, ok := r.Realized()
		if !ok {
			return false
		}
		// Shares per task, and tasks in decreasing share order.
		shares := make([]float64, len(r.Tasks))
		order := make([]int, len(r.Tasks))
		work, remaining := r.WorkMS(), 0.0
		for k := range order {
			order[k] = k
			shares[k] = n.TaskMHzOfWork(r, k, out.Rate, work)
			remaining += shares[k]
		}
		for a := 0; a < len(order); a++ {
			for b := a + 1; b < len(order); b++ {
				if shares[order[b]] > shares[order[a]] {
					order[a], order[b] = order[b], order[a]
				}
			}
		}

		placement := append([]int(nil), d.TaskStations...)
		delta = delta[:0]
		neighbors := n.NeighborsByDistance(station)
		for _, k := range order {
			if fitsWithin(used[station], remaining, n.Capacity(station)) {
				break
			}
			for _, dest := range neighbors {
				if !fitsWithin(used[dest]+delta.of(dest), shares[k], n.Capacity(dest)) {
					continue
				}
				old := placement[k]
				placement[k] = dest
				if latencyOf(n, r, placement, d.WaitSlots, slotLenMS) > r.DeadlineMS {
					placement[k] = old
					continue
				}
				delta = delta.add(dest, shares[k])
				remaining -= shares[k]
				break
			}
		}
		if !fitsWithin(used[station], remaining, n.Capacity(station)) {
			return false // could not shed enough; caller evicts
		}
		// Commit.
		used[station] += remaining
		for _, l := range delta {
			used[l.station] += l.mhz
		}
		d.TaskStations = placement
		d.LatencyMS = latencyOf(n, r, placement, d.WaitSlots, slotLenMS)
		return true
	}
}

// newTaskMigrator returns Algorithm 2's adjustment step as a migrator
// closure over the running result and the global occupancy ledger. Only
// the requests listed in ids may donate a task: the online per-slot
// batches list their own, so streams admitted in earlier slots, whose
// resource holds are already committed, stay put and the scan costs the
// batch, not the decided backlog. The list may come in any order; the
// donor is the one an ascending scan would pick.
func newTaskMigrator(n *mec.Network, reqs []*mec.Request, res *Result, used []float64, slotLenMS float64, ids []int) migrator {
	return func(station, slot int, passUsed func(int) float64) bool {
		// Step 11: among requests already admitted and served on this
		// station, pick the one with the maximum realized data rate that
		// still executes at least one task here, the lowest index among
		// equal rates.
		donor := -1
		donorRate := -1.0
		for _, j := range ids {
			d := &res.Decisions[j]
			if !d.Admitted || d.Evicted {
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
			if out.Rate > donorRate || (out.Rate == donorRate && j < donor) {
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
		moved := n.TaskMHz(r, k, out.Rate)
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

// stationLoad is one station's entry in a stationLoads list.
type stationLoad struct {
	station int
	mhz     float64
}

// stationLoads is a request's MHz per station, one entry per station in
// the order first added. A request's tasks touch a few stations, so a
// scan of the list beats a map.
type stationLoads []stationLoad

// of returns the MHz listed for station st, 0 when it has no entry.
func (l stationLoads) of(st int) float64 {
	for _, e := range l {
		if e.station == st {
			return e.mhz
		}
	}
	return 0
}

// add adds mhz to station st's entry, appending a zero entry first when
// st has none, and returns the list.
func (l stationLoads) add(st int, mhz float64) stationLoads {
	i := 0
	for i < len(l) && l[i].station != st {
		i++
	}
	if i == len(l) {
		l = append(l, stationLoad{station: st})
	}
	l[i].mhz += mhz
	return l
}
