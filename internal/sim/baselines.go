package sim

import (
	"sort"

	"mecoffload/internal/core"
)

// placeConsolidated writes a consolidated placement for request j admitted
// at slot t on station i.
func placeConsolidated(eng *Engine, res *core.Result, j, i, t int) {
	r := eng.Requests()[j]
	d := &res.Decisions[j]
	d.Admitted = true
	d.Station = i
	d.Slot = 1
	d.WaitSlots = t - r.ArrivalSlot
	d.TaskStations = make([]int, len(r.Tasks))
	for k := range d.TaskStations {
		d.TaskStations[k] = i
	}
	d.LatencyMS = float64(d.WaitSlots)*eng.SlotLengthMS() + r.ServiceDelayMS(eng.Net(), i)
}

// OnlineOCORP is the per-slot variant of the OCORP baseline: each slot it
// sorts the pending jobs by (arrival time, expected remaining data) and
// assigns each to the lowest-latency station whose expected residual
// capacity still fits the job's expected demand. Unassigned jobs stay
// pending for the next slot.
type OnlineOCORP struct{}

var _ Scheduler = (*OnlineOCORP)(nil)

// Name implements Scheduler.
func (*OnlineOCORP) Name() string { return "OCORP" }

// UncertaintyAware implements Scheduler.
func (*OnlineOCORP) UncertaintyAware() bool { return false }

// Feedback implements Scheduler: the online baselines do not learn.
func (*OnlineOCORP) Feedback(int, float64)  {}
func (*OnlineGreedy) Feedback(int, float64) {}
func (*OnlineHeuKKT) Feedback(int, float64) {}

// Schedule implements Scheduler.
func (*OnlineOCORP) Schedule(eng *Engine, res *core.Result, t int, pending []int) ([]int, error) {
	reqs := eng.Build(pending)
	order := append([]int(nil), pending...)
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

	net := eng.Net()
	expected := eng.ExpectedUsed()
	var admitted []int
	for _, j := range order {
		r := reqs[j]
		wait := t - r.ArrivalSlot
		eDemand := net.RateToMHz(r.ExpectedRate())
		best, bestLat := -1, 0.0
		for i := 0; i < net.NumStations(); i++ {
			if !r.DelayFeasible(net, i, wait, eng.SlotLengthMS()) {
				continue
			}
			if net.Capacity(i)-expected[i] < eDemand {
				continue
			}
			lat := r.ServiceDelayMS(net, i)
			if best == -1 || lat < bestLat {
				best, bestLat = i, lat
			}
		}
		if best == -1 {
			continue
		}
		expected[best] += eDemand
		placeConsolidated(eng, res, j, best, t)
		admitted = append(admitted, j)
	}
	return admitted, nil
}

// OnlineGreedy is the per-slot variant of the Greedy baseline: pending
// requests in decreasing execution-time order, each assigned to the
// station minimizing completion time (running pipeline backlog plus the
// request's own service delay), rejected for this slot when even the best
// completion time misses the deadline.
type OnlineGreedy struct{}

var _ Scheduler = (*OnlineGreedy)(nil)

// Name implements Scheduler.
func (*OnlineGreedy) Name() string { return "Greedy" }

// UncertaintyAware implements Scheduler.
func (*OnlineGreedy) UncertaintyAware() bool { return false }

// Schedule implements Scheduler.
func (*OnlineGreedy) Schedule(eng *Engine, res *core.Result, t int, pending []int) ([]int, error) {
	reqs := eng.Build(pending)
	net := eng.Net()
	order := append([]int(nil), pending...)
	sort.Slice(order, func(a, b int) bool {
		wa, wb := reqs[order[a]].WorkMS(), reqs[order[b]].WorkMS()
		if wa != wb {
			return wa > wb
		}
		return order[a] < order[b]
	})

	queueMS := eng.RunningProcMS()
	var admitted []int
	for _, j := range order {
		r := reqs[j]
		wait := t - r.ArrivalSlot
		budget := r.DeadlineMS - float64(wait)*eng.SlotLengthMS()
		best, bestDone := -1, 0.0
		for i := 0; i < net.NumStations(); i++ {
			done := queueMS[i] + r.ServiceDelayMS(net, i)
			if done > budget {
				continue
			}
			if best == -1 || done < bestDone {
				best, bestDone = i, done
			}
		}
		if best == -1 {
			continue
		}
		st, err := net.Station(best)
		if err != nil {
			return nil, err
		}
		queueMS[best] += r.ProcDelayMS(st)
		placeConsolidated(eng, res, j, best, t)
		admitted = append(admitted, j)
	}
	return admitted, nil
}

// OnlineHeuKKT is the per-slot variant of the HeuKKT baseline: pending
// requests first map to their latency-optimal stations (the uncapacitated
// relaxation); each station retains its highest reward-density requests up
// to the interior KKT water level of its expected residual capacity, the
// overflow pours into the least-loaded feasible stations, and the rest is
// offloaded to the remote cloud (rejected — the cloud earns no edge
// reward).
type OnlineHeuKKT struct{}

var _ Scheduler = (*OnlineHeuKKT)(nil)

// waterLevel is the interior optimum load fraction of the convex
// latency-minimization program HeuKKT solves (see baseline.HeuKKT).
const waterLevel = 0.90

// Name implements Scheduler.
func (*OnlineHeuKKT) Name() string { return "HeuKKT" }

// UncertaintyAware implements Scheduler.
func (*OnlineHeuKKT) UncertaintyAware() bool { return false }

// Schedule implements Scheduler.
func (*OnlineHeuKKT) Schedule(eng *Engine, res *core.Result, t int, pending []int) ([]int, error) {
	reqs := eng.Build(pending)
	net := eng.Net()
	expected := eng.ExpectedUsed()

	ideal := make([][]int, net.NumStations())
	for _, j := range pending {
		r := reqs[j]
		wait := t - r.ArrivalSlot
		best, bestLat := -1, 0.0
		for i := 0; i < net.NumStations(); i++ {
			if !r.DelayFeasible(net, i, wait, eng.SlotLengthMS()) {
				continue
			}
			lat := r.ServiceDelayMS(net, i)
			if best == -1 || lat < bestLat {
				best, bestLat = i, lat
			}
		}
		if best >= 0 {
			ideal[best] = append(ideal[best], j)
		}
	}

	density := func(j int) float64 {
		r := reqs[j]
		return r.ExpectedReward() / (net.RateToMHz(r.ExpectedRate()) + 1)
	}
	var admitted []int
	var overflow []int
	for i := 0; i < net.NumStations(); i++ {
		cand := ideal[i]
		sort.Slice(cand, func(a, b int) bool {
			da, db := density(cand[a]), density(cand[b])
			if da != db {
				return da > db
			}
			return cand[a] < cand[b]
		})
		for _, j := range cand {
			eDemand := net.RateToMHz(reqs[j].ExpectedRate())
			if expected[i]+eDemand <= waterLevel*net.Capacity(i) {
				expected[i] += eDemand
				placeConsolidated(eng, res, j, i, t)
				admitted = append(admitted, j)
			} else {
				overflow = append(overflow, j)
			}
		}
	}
	sort.Slice(overflow, func(a, b int) bool {
		da, db := density(overflow[a]), density(overflow[b])
		if da != db {
			return da > db
		}
		return overflow[a] < overflow[b]
	})
	for _, j := range overflow {
		r := reqs[j]
		wait := t - r.ArrivalSlot
		eDemand := net.RateToMHz(r.ExpectedRate())
		alt, altLoad := -1, 0.0
		for i := 0; i < net.NumStations(); i++ {
			if !r.DelayFeasible(net, i, wait, eng.SlotLengthMS()) {
				continue
			}
			if expected[i]+eDemand > waterLevel*net.Capacity(i) {
				continue
			}
			load := expected[i] / net.Capacity(i)
			if alt == -1 || load < altLoad {
				alt, altLoad = i, load
			}
		}
		if alt == -1 {
			continue
		}
		expected[alt] += eDemand
		placeConsolidated(eng, res, j, alt, t)
		admitted = append(admitted, j)
	}
	return admitted, nil
}
