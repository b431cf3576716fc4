package serve

import "mecoffload/internal/mec"

// SpecCandidates computes the candidate stations of a spec — the stations
// on which the per-slot LP would create at least one placement variable
// for the materialized request at zero wait, against unloaded capacities —
// without materializing the request. It accepts what MaterializeSpec
// accepts (both ask checkSpec) and applies exactly core.CandidateStations'
// feasibility rule (TestSpecCandidatesMatchesMaterialized pins the
// equivalence), but allocation-free: results are appended into buf (reused
// at [:0]). The cluster router calls this on every routed spec, so the
// ingest fast path stays off the allocator.
//
// The demand side of the candidate rule only needs the smallest rate that
// carries positive reward mass: ER at slot 1 is positive iff some outcome
// with prob*reward > 0 fits the station's spare capacity, and outcomes are
// screened bottom-up by rate.
func SpecCandidates(net *mec.Network, spec RequestSpec, buf []int) ([]int, error) {
	facts, err := checkSpec(net, spec)
	if err != nil {
		return nil, err
	}
	slotMHz := net.SlotMHz()
	cUnit := net.CUnit()
	buf = buf[:0]
	for i := 0; i < net.NumStations(); i++ {
		st, err := net.Station(i)
		if err != nil {
			return nil, err
		}
		// Effective capacity, not nominal: a station scaled down by an
		// outage must drop out of the candidate set exactly as it does in
		// core.CandidateStations' feasibility rule.
		capI := net.Capacity(i)
		if capI < slotMHz {
			continue
		}
		// Written as mec.Request.DelayFeasible writes it, so that a NaN
		// deadline or work figure (accepted, never schedulable) has no
		// candidates here either.
		if d := net.RoundTripDelayMS(spec.AccessStation, i) + facts.workMS*st.SpeedFactor; !(d <= facts.deadlineMS) {
			continue
		}
		if facts.minPosRate > (capI-slotMHz)/cUnit {
			continue
		}
		buf = append(buf, i)
	}
	return buf, nil
}
