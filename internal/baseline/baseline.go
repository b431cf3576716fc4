// Package baseline implements the three comparison algorithms of the
// paper's evaluation (Section VI-A), reconstructed from their descriptions
// there and in the cited works:
//
//   - OCORP (Liu et al. [20]): per round, sort unfinished jobs by arrival
//     time and remaining to-be-processed data, then assign each to an edge
//     server by best fit on expected demand.
//   - Greedy (Yang et al. [32]): sort tasks in decreasing order of their
//     execution times and assign each task to the edge server that
//     minimizes its completion time (latency-greedy, reward-blind).
//   - HeuKKT (Ma et al. [21]): first drop the capacity constraints to
//     split the workload between edge and remote cloud, then schedule the
//     edge share optimally under Karush-Kuhn-Tucker conditions
//     (water-filling over station capacities).
//
// Each baseline is one placement rule (OCORPSlot, GreedySlot, HeuKKTSlot)
// over a Batch. The offline OCORP, Greedy and HeuKKT run their rule once
// over the whole workload, nobody waiting, on empty ledgers; the online
// schedulers in internal/sim run it every slot over the pending queue,
// each request waiting since its arrival, on the running streams' ledgers.
//
// All three schedule on expected data rates — they are "coarse-grained"
// about demand uncertainty, which is exactly the behaviour the paper's
// evaluation contrasts against the slot-indexed algorithms. None of them
// observes realized data rates, so none evicts overflowing requests;
// rewards are settled by core.Evaluate (offline) or the engine (online)
// under the shared overload semantics.
package baseline

import (
	"cmp"
	"math/rand"
	"slices"
	"time"

	"mecoffload/internal/core"
	"mecoffload/internal/mec"
)

// Batch is one placement round: the requests a rule may place and how long
// each has waited.
type Batch struct {
	Net *mec.Network
	// Reqs is the workload indexed by request ID; a rule reads only the
	// entries Pending names.
	Reqs []*mec.Request
	// Pending lists the IDs of the requests the rule may place.
	Pending []int
	// Wait returns the slots r has waited.
	Wait func(r *mec.Request) int
	// SlotLengthMS converts waiting slots into milliseconds.
	SlotLengthMS float64
}

// place writes the consolidated placement of request j on station i after
// wait slots: every task on i, served from the next slot. The baselines
// are demand-uncertainty-oblivious: they never observe realized rates and
// never evict.
func (b *Batch) place(res *core.Result, j, i, wait int) {
	r := b.Reqs[j]
	d := &res.Decisions[j]
	d.Admitted, d.Station, d.Slot, d.WaitSlots = true, i, 1, wait
	d.TaskStations = make([]int, len(r.Tasks))
	for k := range d.TaskStations {
		d.TaskStations[k] = i
	}
	d.LatencyMS = float64(wait)*b.SlotLengthMS + r.ServiceDelayMS(b.Net, i)
}

// OCORPSlot is the online-convex-optimization resource packing rule: jobs
// ordered by (arrival time, expected remaining data), each placed by best
// fit in the latency dimension — among the delay-feasible stations whose
// residual expected capacity still holds the job, the lowest-latency one
// ("OCORP and Greedy greedily select locations that achieve the lowest
// latencies", Section VI-B). Packing is against expected rates with zero
// headroom; expectedMHz, the expected load per station, grows in place.
// It returns the placed requests in placement order.
func OCORPSlot(b Batch, expectedMHz []float64, res *core.Result) ([]int, error) {
	n := b.Net
	order := slices.Clone(b.Pending)
	slices.SortFunc(order, func(x, y int) int {
		rx, ry := b.Reqs[x], b.Reqs[y]
		return cmp.Or(cmp.Compare(rx.ArrivalSlot, ry.ArrivalSlot),
			cmp.Compare(rx.ExpectedRate(), ry.ExpectedRate()), cmp.Compare(x, y))
	})
	var placed []int
	for _, j := range order {
		r := b.Reqs[j]
		wait := b.Wait(r)
		eDemand := n.RateToMHz(r.ExpectedRate())
		best, bestLat := -1, 0.0
		for i := 0; i < n.NumStations(); i++ {
			if !r.DelayFeasible(n, i, wait, b.SlotLengthMS) || n.Capacity(i)-expectedMHz[i] < eDemand {
				continue
			}
			if lat := r.ServiceDelayMS(n, i); best == -1 || lat < bestLat {
				best, bestLat = i, lat
			}
		}
		if best == -1 {
			continue
		}
		expectedMHz[best] += eDemand
		b.place(res, j, best, wait)
		placed = append(placed, j)
	}
	return placed, nil
}

// GreedySlot is the latency-greedy rule: requests ordered by decreasing
// total execution time, each assigned to the station minimizing its
// completion time — the station's backlog plus the request's own service
// delay. A request whose best completion time misses what is left of its
// deadline is rejected, so queues stay short and the greedy achieves low
// latency at the cost of admitting far fewer requests (the paper's
// "trade-off the reward for latency"). backlogMS, the execution time
// already scheduled per station, grows in place. It returns the placed
// requests in placement order.
func GreedySlot(b Batch, backlogMS []float64, res *core.Result) ([]int, error) {
	n := b.Net
	order := slices.Clone(b.Pending)
	slices.SortFunc(order, func(x, y int) int { // decreasing execution time
		return cmp.Or(cmp.Compare(b.Reqs[y].WorkMS(), b.Reqs[x].WorkMS()), cmp.Compare(x, y))
	})
	var placed []int
	for _, j := range order {
		r := b.Reqs[j]
		wait := b.Wait(r)
		budget := r.DeadlineMS - float64(wait)*b.SlotLengthMS
		best, bestDone := -1, 0.0
		for i := 0; i < n.NumStations(); i++ {
			done := backlogMS[i] + r.ServiceDelayMS(n, i)
			if done <= budget && (best == -1 || done < bestDone) {
				best, bestDone = i, done
			}
		}
		if best == -1 {
			continue
		}
		st, err := n.Station(best)
		if err != nil {
			return nil, err
		}
		backlogMS[best] += r.ProcDelayMS(st)
		b.place(res, j, best, wait)
		placed = append(placed, j)
	}
	return placed, nil
}

// waterLevel is the interior optimum load fraction of HeuKKT's program:
// the KKT conditions of the underlying convex latency-minimization program
// put the optimum strictly inside the capacity region (the queueing-delay
// term's gradient diverges at full load), so water-filling fills each
// station only to this level. The safety margin is what makes HeuKKT the
// most robust baseline.
const waterLevel = 0.90

// HeuKKTSlot first solves the uncapacitated relaxation: every request
// would ideally run on its latency-optimal feasible station. That overloads
// attractive stations, so KKT water-filling retains the highest
// reward-density requests on each station up to the water level of its
// capacity (stationarity ranks requests by marginal value; the retention
// headroom is the complementary-slackness multiplier of the capacity
// constraint), and pours the overflow into the least-loaded stations that
// still fit it and meet its deadline. Whatever fits nowhere is offloaded
// to the remote cloud, which earns the MEC provider no edge reward (it
// stays rejected). expectedMHz, the expected load per station, grows in
// place. It returns the placed requests in placement order.
func HeuKKTSlot(b Batch, expectedMHz []float64, res *core.Result) ([]int, error) {
	n := b.Net
	ideal := make([][]int, n.NumStations())
	for _, j := range b.Pending {
		r := b.Reqs[j]
		wait := b.Wait(r)
		best, bestLat := -1, 0.0
		for i := 0; i < n.NumStations(); i++ {
			if !r.DelayFeasible(n, i, wait, b.SlotLengthMS) {
				continue
			}
			if lat := r.ServiceDelayMS(n, i); best == -1 || lat < bestLat {
				best, bestLat = i, lat
			}
		}
		if best >= 0 {
			ideal[best] = append(ideal[best], j)
		}
	}

	density := func(j int) float64 {
		r := b.Reqs[j]
		return r.ExpectedReward() / (n.RateToMHz(r.ExpectedRate()) + 1)
	}
	byDensity := func(x, y int) int { // decreasing reward density
		return cmp.Or(cmp.Compare(density(y), density(x)), cmp.Compare(x, y))
	}
	fits := func(i int, eDemand float64) bool {
		return expectedMHz[i]+eDemand <= waterLevel*n.Capacity(i)
	}
	var placed, overflow []int
	for i, cand := range ideal {
		slices.SortFunc(cand, byDensity)
		for _, j := range cand {
			r := b.Reqs[j]
			if eDemand := n.RateToMHz(r.ExpectedRate()); fits(i, eDemand) {
				expectedMHz[i] += eDemand
				b.place(res, j, i, b.Wait(r))
				placed = append(placed, j)
			} else {
				overflow = append(overflow, j)
			}
		}
	}
	slices.SortFunc(overflow, byDensity)
	for _, j := range overflow {
		r := b.Reqs[j]
		wait := b.Wait(r)
		eDemand := n.RateToMHz(r.ExpectedRate())
		alt, altLoad := -1, 0.0
		for i := 0; i < n.NumStations(); i++ {
			if !r.DelayFeasible(n, i, wait, b.SlotLengthMS) || !fits(i, eDemand) {
				continue
			}
			if load := expectedMHz[i] / n.Capacity(i); alt == -1 || load < altLoad {
				alt, altLoad = i, load
			}
		}
		if alt == -1 {
			continue
		}
		expectedMHz[alt] += eDemand
		b.place(res, j, alt, wait)
		placed = append(placed, j)
	}
	return placed, nil
}

// OCORP is the offline OCORP baseline: OCORPSlot over the whole workload.
func OCORP(n *mec.Network, reqs []*mec.Request, rng *rand.Rand) (*core.Result, error) {
	return offline("OCORP", OCORPSlot, n, reqs, rng)
}

// Greedy is the offline Greedy baseline: GreedySlot over the whole
// workload.
func Greedy(n *mec.Network, reqs []*mec.Request, rng *rand.Rand) (*core.Result, error) {
	return offline("Greedy", GreedySlot, n, reqs, rng)
}

// HeuKKT is the offline HeuKKT baseline: HeuKKTSlot over the whole
// workload.
func HeuKKT(n *mec.Network, reqs []*mec.Request, rng *rand.Rand) (*core.Result, error) {
	return offline("HeuKKT", HeuKKTSlot, n, reqs, rng)
}

// offline runs rule once over every request, nobody waiting, on a zeroed
// ledger, and settles the rewards with core.Evaluate.
func offline(name string, rule func(Batch, []float64, *core.Result) ([]int, error),
	n *mec.Network, reqs []*mec.Request, rng *rand.Rand) (*core.Result, error) {
	if n == nil {
		return nil, core.ErrNilNetwork
	}
	if len(reqs) == 0 {
		return nil, core.ErrNoRequests
	}
	start := time.Now()
	res := core.NewResult(name, len(reqs))
	all := make([]int, len(reqs))
	for j := range all {
		all[j] = j
	}
	b := Batch{Net: n, Reqs: reqs, Pending: all, SlotLengthMS: mec.DefaultSlotLengthMS,
		Wait: func(*mec.Request) int { return 0 }}
	if _, err := rule(b, make([]float64, n.NumStations()), res); err != nil {
		return nil, err
	}
	core.Evaluate(n, reqs, res, rng)
	res.Runtime = time.Since(start)
	return res, nil
}
