package serve

import "mecoffload/internal/mec"

// SpecCandidates computes the candidate stations of a spec — the stations
// on which the per-slot LP would create at least one placement variable
// for the materialized request at zero wait, against unloaded capacities,
// in ascending order — without materializing the request. It accepts what
// MaterializeSpec accepts (both ask checkSpec) and applies exactly the
// slot LP's candidate rule (TestSpecCandidatesMatchesMaterialized pins the
// equivalence against a full scan of the materialized request), but
// allocation-free: results are appended into buf (reused at [:0]). The
// cluster router calls this on every routed spec, so the ingest fast path
// stays off the allocator.
//
// The delay side of the rule is mec.Request.AppendReach on a one-task
// stand-in carrying the pipeline's total work, so a spec costs the stations
// it can reach, not the network: at zero wait DelayFeasible prices the
// stand-in at round trip + work × speed factor, and a NaN deadline or work
// figure (accepted, never schedulable) has no candidates. The demand side
// only needs the smallest rate that carries positive reward mass: ER at
// slot 1 is positive iff some outcome with prob*reward > 0 fits the
// station's spare capacity, and outcomes are screened bottom-up by rate.
func SpecCandidates(net *mec.Network, spec RequestSpec, buf []int) ([]int, error) {
	facts, err := checkSpec(net, spec)
	if err != nil {
		return nil, err
	}
	stand := mec.Request{
		AccessStation: spec.AccessStation,
		Tasks:         []mec.Task{{WorkMS: facts.workMS}},
		DeadlineMS:    facts.deadlineMS,
	}
	reach := stand.AppendReach(buf[:0], net, 0, mec.DefaultSlotLengthMS)
	slotMHz := net.SlotMHz()
	cUnit := net.CUnit()
	cands := reach[:0]
	for _, i := range reach {
		// Effective capacity, not nominal: a station scaled down by an
		// outage must drop out of the candidate set exactly as it does in
		// the slot LP.
		capI := net.Capacity(i)
		if capI < slotMHz || facts.minPosRate > (capI-slotMHz)/cUnit {
			continue
		}
		cands = append(cands, i)
	}
	return cands, nil
}
