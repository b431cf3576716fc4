package sim

import (
	"fmt"
	"math"

	"mecoffload/internal/core"
	"mecoffload/internal/mec"
)

// AuditTimeline verifies an online result by replaying it: every served
// request occupies its realized demand shares on its task stations from
// its scheduling slot for its stream duration, and at no slot may a
// station's total served load exceed its capacity. It also re-checks
// latency requirements, reward consistency, and counter balance. Use it
// instead of core.Audit for Engine results (capacity is shared over time).
func AuditTimeline(n *mec.Network, reqs []*mec.Request, res *core.Result, horizon int) error {
	if len(res.Decisions) != len(reqs) {
		return fmt.Errorf("sim: audit: %d decisions for %d requests", len(res.Decisions), len(reqs))
	}
	// Difference arrays per station over [0, horizon+maxHold].
	maxSlot := horizon + 1
	for _, r := range reqs {
		if end := r.ArrivalSlot + horizon + r.HoldSlots(); end > maxSlot {
			maxSlot = end
		}
	}
	diff := make([][]float64, n.NumStations())
	for i := range diff {
		diff[i] = make([]float64, maxSlot+2)
	}

	totalReward := 0.0
	served, admitted := 0, 0
	for id, d := range res.Decisions {
		if d.RequestID != id {
			return fmt.Errorf("sim: audit: decision %d has request ID %d", id, d.RequestID)
		}
		r := reqs[id]
		if !d.Admitted {
			if d.Served || d.Evicted || d.Reward != 0 {
				return fmt.Errorf("sim: audit: rejected request %d has served=%v evicted=%v reward=%v",
					id, d.Served, d.Evicted, d.Reward)
			}
			continue
		}
		admitted++
		if d.WaitSlots < 0 {
			return fmt.Errorf("sim: audit: request %d has negative wait %d", id, d.WaitSlots)
		}
		if !d.Served {
			if d.Reward != 0 {
				return fmt.Errorf("sim: audit: unserved request %d has reward %v", id, d.Reward)
			}
			continue
		}
		served++
		if d.Evicted {
			return fmt.Errorf("sim: audit: request %d both served and evicted", id)
		}
		if d.LatencyMS > r.DeadlineMS+1e-6 {
			return fmt.Errorf("sim: audit: served request %d latency %.2f ms exceeds deadline %.2f ms",
				id, d.LatencyMS, r.DeadlineMS)
		}
		out, err := r.MustRealized()
		if err != nil {
			return fmt.Errorf("sim: audit: served request %d: %w", id, err)
		}
		if math.Abs(d.Reward-out.Reward) > 1e-9 {
			return fmt.Errorf("sim: audit: request %d reward %v != realized %v", id, d.Reward, out.Reward)
		}
		totalReward += d.Reward

		startSlot := r.ArrivalSlot + d.WaitSlots
		endSlot := startSlot + r.HoldSlots()
		if endSlot > maxSlot {
			endSlot = maxSlot
		}
		if len(d.TaskStations) != len(r.Tasks) {
			return fmt.Errorf("sim: audit: request %d has %d placements for %d tasks",
				id, len(d.TaskStations), len(r.Tasks))
		}
		for k, st := range d.TaskStations {
			if st < 0 || st >= n.NumStations() {
				return fmt.Errorf("sim: audit: request %d task %d on invalid station %d", id, k, st)
			}
			mhz := n.TaskMHz(r, k, out.Rate)
			diff[st][startSlot] += mhz
			diff[st][endSlot] -= mhz
		}
	}

	if math.Abs(totalReward-res.TotalReward) > 1e-6*(1+math.Abs(res.TotalReward)) {
		return fmt.Errorf("sim: audit: total reward %v != sum of decisions %v", res.TotalReward, totalReward)
	}
	if served != res.Served || admitted != res.Admitted {
		return fmt.Errorf("sim: audit: counts served=%d/%d admitted=%d/%d",
			res.Served, served, res.Admitted, admitted)
	}
	for i := range diff {
		load := 0.0
		for t := 0; t <= maxSlot; t++ {
			load += diff[i][t]
			if load > n.Capacity(i) {
				return fmt.Errorf("sim: audit: station %d carries %.1f MHz of %.1f at slot %d",
					i, load, n.Capacity(i), t)
			}
		}
	}
	return nil
}
