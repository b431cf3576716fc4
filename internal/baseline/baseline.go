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
// All three schedule on expected data rates — they are "coarse-grained"
// about demand uncertainty, which is exactly the behaviour the paper's
// evaluation contrasts against the slot-indexed algorithms. None of them
// observes realized data rates, so none evicts overflowing requests;
// rewards are settled by core.Evaluate under the shared overload
// semantics.
package baseline

import (
	"math/rand"
	"sort"
	"time"

	"mecoffload/internal/core"
	"mecoffload/internal/mec"
)

// Options tunes the offline baselines.
type Options struct {
	// SlotLengthMS converts waiting slots into milliseconds (default
	// mec.DefaultSlotLengthMS).
	SlotLengthMS float64
}

func (o *Options) fill() {
	if o.SlotLengthMS == 0 {
		o.SlotLengthMS = mec.DefaultSlotLengthMS
	}
}

// admitConsolidated places a request on station i. The baselines are
// demand-uncertainty-oblivious: they never observe realized rates and
// never evict, so rewards are settled entirely by core.Evaluate.
func admitConsolidated(n *mec.Network, r *mec.Request, i int, res *core.Result, slotLenMS float64) {
	d := &res.Decisions[r.ID]
	d.Admitted = true
	d.Station = i
	d.Slot = 1
	d.TaskStations = make([]int, len(r.Tasks))
	for k := range d.TaskStations {
		d.TaskStations[k] = i
	}
	d.LatencyMS = float64(d.WaitSlots)*slotLenMS + r.ServiceDelayMS(n, i)
}

// mustStation fetches a station by a known-valid index.
func mustStation(n *mec.Network, i int) mec.BaseStation {
	st, err := n.Station(i)
	if err != nil {
		// Unreachable: callers iterate valid station indices.
		panic(err)
	}
	return st
}

// newResult allocates an all-rejected result for the workload.
func newResult(name string, reqs []*mec.Request) *core.Result {
	res := &core.Result{Algorithm: name, Decisions: make([]core.Decision, len(reqs))}
	for j := range res.Decisions {
		res.Decisions[j] = core.Decision{RequestID: j, Station: -1}
	}
	return res
}

// OCORP is the offline variant of the online-convex-optimization resource
// packing baseline: jobs ordered by (arrival time, expected remaining
// data), each placed by best fit — the delay-feasible station whose
// residual expected capacity is smallest but still sufficient for the
// job's expected demand.
func OCORP(n *mec.Network, reqs []*mec.Request, rng *rand.Rand, opts Options) (*core.Result, error) {
	if n == nil {
		return nil, core.ErrNilNetwork
	}
	if len(reqs) == 0 {
		return nil, core.ErrNoRequests
	}
	opts.fill()
	start := time.Now()
	res := newResult("OCORP", reqs)

	order := make([]int, len(reqs))
	for j := range order {
		order[j] = j
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := reqs[order[a]], reqs[order[b]]
		if ra.ArrivalSlot != rb.ArrivalSlot {
			return ra.ArrivalSlot < rb.ArrivalSlot
		}
		da, db := ra.ExpectedRate(), rb.ExpectedRate()
		if da != db {
			return da < db
		}
		return order[a] < order[b]
	})

	expected := make([]float64, n.NumStations())
	for _, j := range order {
		r := reqs[j]
		eDemand := n.RateToMHz(r.ExpectedRate())
		// Best fit in the latency dimension: among stations whose
		// expected residual capacity still holds the job, greedily take
		// the lowest-latency one ("OCORP and Greedy greedily select
		// locations that achieve the lowest latencies", Section VI-B).
		// Packing is against expected rates with zero headroom.
		best, bestLat := -1, 0.0
		for i := 0; i < n.NumStations(); i++ {
			lat := r.ServiceDelayMS(n, i)
			if lat > r.DeadlineMS {
				continue
			}
			if n.Capacity(i)-expected[i] < eDemand {
				continue
			}
			if best == -1 || lat < bestLat {
				best, bestLat = i, lat
			}
		}
		if best == -1 {
			continue
		}
		expected[best] += eDemand
		admitConsolidated(n, r, best, res, opts.SlotLengthMS)
	}
	core.Evaluate(n, reqs, res, rng)
	res.Runtime = time.Since(start)
	return res, nil
}

// Greedy is the latency-greedy baseline: requests ordered by decreasing
// total execution time; each request's tasks are assigned one-by-one to
// the station that minimizes the task's completion time given the
// expected load already placed there, subject to the request's deadline.
func Greedy(n *mec.Network, reqs []*mec.Request, rng *rand.Rand, opts Options) (*core.Result, error) {
	if n == nil {
		return nil, core.ErrNilNetwork
	}
	if len(reqs) == 0 {
		return nil, core.ErrNoRequests
	}
	opts.fill()
	start := time.Now()
	res := newResult("Greedy", reqs)

	order := make([]int, len(reqs))
	for j := range order {
		order[j] = j
	}
	sort.Slice(order, func(a, b int) bool {
		wa, wb := reqs[order[a]].WorkMS(), reqs[order[b]].WorkMS()
		if wa != wb {
			return wa > wb // decreasing execution time
		}
		return order[a] < order[b]
	})

	// queueMS[i] accumulates the execution time already scheduled on
	// station i: the cited heuristic minimizes completion time, which is
	// the station's current backlog plus the request's own service delay.
	queueMS := make([]float64, n.NumStations())
	for _, j := range order {
		r := reqs[j]
		// The station minimizing completion time; requests whose best
		// completion time misses the deadline are rejected, so queues
		// stay short and the greedy achieves low latency — at the cost of
		// admitting far fewer requests (the paper's "trade-off the reward
		// for latency").
		best, bestDone := -1, 0.0
		for i := 0; i < n.NumStations(); i++ {
			done := queueMS[i] + r.ServiceDelayMS(n, i)
			if done > r.DeadlineMS {
				continue
			}
			if best == -1 || done < bestDone {
				best, bestDone = i, done
			}
		}
		if best == -1 {
			continue
		}
		queueMS[best] += r.ProcDelayMS(mustStation(n, best))
		admitConsolidated(n, r, best, res, opts.SlotLengthMS)
	}
	core.Evaluate(n, reqs, res, rng)
	res.Runtime = time.Since(start)
	return res, nil
}

// HeuKKT first solves the uncapacitated relaxation: every request would
// ideally run on its latency-optimal station. Stations whose ideal load
// exceeds capacity offload the excess — lowest expected reward first — to
// the remote cloud, which earns the MEC provider no edge reward. The
// retained edge share is then scheduled by KKT-style water-filling:
// overloaded stations shed their marginal requests to the least-loaded
// feasible stations until every capacity constraint holds.
func HeuKKT(n *mec.Network, reqs []*mec.Request, rng *rand.Rand, opts Options) (*core.Result, error) {
	if n == nil {
		return nil, core.ErrNilNetwork
	}
	if len(reqs) == 0 {
		return nil, core.ErrNoRequests
	}
	opts.fill()
	start := time.Now()
	res := newResult("HeuKKT", reqs)

	// The KKT conditions of the underlying convex latency-minimization
	// program put the optimum strictly inside the capacity region (the
	// queueing-delay term's gradient diverges at full load), so
	// water-filling fills each station only to this interior water level.
	// The safety margin is what makes HeuKKT the most robust baseline.
	const waterLevel = 0.90

	// Phase 1: uncapacitated assignment to the latency-optimal station.
	ideal := make([][]int, n.NumStations())
	for j, r := range reqs {
		best, bestLat := -1, 0.0
		for i := 0; i < n.NumStations(); i++ {
			lat := r.ServiceDelayMS(n, i)
			if lat > r.DeadlineMS {
				continue
			}
			if best == -1 || lat < bestLat {
				best, bestLat = i, lat
			}
		}
		if best >= 0 {
			ideal[best] = append(ideal[best], j)
		}
	}

	// Phase 2: the uncapacitated solution overloads attractive stations;
	// KKT water-filling retains the highest reward-density requests on
	// each station up to a fraction of its capacity (stationarity ranks
	// requests by marginal value; the retention headroom is the
	// complementary-slackness multiplier of the capacity constraint) and
	// rebalances a limited share to under-loaded stations. Whatever still
	// exceeds edge capacity is offloaded to the remote cloud, which earns
	// the MEC provider no edge reward.
	expected := make([]float64, n.NumStations())
	assign := make([]int, len(reqs))
	for j := range assign {
		assign[j] = -1
	}
	var overflow []int
	for i := 0; i < n.NumStations(); i++ {
		// Order local candidates by decreasing reward density, i.e. the
		// marginal value KKT stationarity ranks them by.
		cand := append([]int(nil), ideal[i]...)
		sort.Slice(cand, func(a, b int) bool {
			ra, rb := reqs[cand[a]], reqs[cand[b]]
			da := ra.ExpectedReward() / (n.RateToMHz(ra.ExpectedRate()) + 1)
			db := rb.ExpectedReward() / (n.RateToMHz(rb.ExpectedRate()) + 1)
			if da != db {
				return da > db
			}
			return cand[a] < cand[b]
		})
		for _, j := range cand {
			eDemand := n.RateToMHz(reqs[j].ExpectedRate())
			if expected[i]+eDemand <= waterLevel*n.Capacity(i) {
				assign[j] = i
				expected[i] += eDemand
			} else {
				overflow = append(overflow, j)
			}
		}
	}
	// Water-filling of the overflow: pour each shed request into the
	// least-loaded station that still fits it and meets its deadline;
	// requests that fit nowhere go to the cloud (assign stays -1).
	sort.Slice(overflow, func(a, b int) bool {
		ra, rb := reqs[overflow[a]], reqs[overflow[b]]
		da := ra.ExpectedReward() / (n.RateToMHz(ra.ExpectedRate()) + 1)
		db := rb.ExpectedReward() / (n.RateToMHz(rb.ExpectedRate()) + 1)
		if da != db {
			return da > db
		}
		return overflow[a] < overflow[b]
	})
	for _, j := range overflow {
		r := reqs[j]
		eDemand := n.RateToMHz(r.ExpectedRate())
		alt, altLoad := -1, 0.0
		for i := 0; i < n.NumStations(); i++ {
			if r.ServiceDelayMS(n, i) > r.DeadlineMS {
				continue
			}
			if expected[i]+eDemand > waterLevel*n.Capacity(i) {
				continue
			}
			load := expected[i] / n.Capacity(i)
			if alt == -1 || load < altLoad {
				alt, altLoad = i, load
			}
		}
		if alt >= 0 {
			assign[j] = alt
			expected[alt] += eDemand
		}
	}

	for j, r := range reqs {
		if assign[j] < 0 {
			continue
		}
		admitConsolidated(n, r, assign[j], res, opts.SlotLengthMS)
	}
	core.Evaluate(n, reqs, res, rng)
	res.Runtime = time.Since(start)
	return res, nil
}
