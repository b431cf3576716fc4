package sim

import (
	"mecoffload/internal/baseline"
	"mecoffload/internal/core"
	"mecoffload/internal/mec"
)

// The online baselines run their package baseline placement rule every
// slot over the pending queue: each request has waited since its arrival,
// and the ledger is the running streams' load. Requests the rule does not
// place stay pending for the next slot. None of them learns, so Feedback
// is empty.
type (
	// OnlineOCORP runs baseline.OCORPSlot against the expected load of
	// the running streams.
	OnlineOCORP struct{}
	// OnlineGreedy runs baseline.GreedySlot against the running
	// pipeline backlog.
	OnlineGreedy struct{}
	// OnlineHeuKKT runs baseline.HeuKKTSlot against the expected load of
	// the running streams.
	OnlineHeuKKT struct{}
)

var (
	_ Scheduler = (*OnlineOCORP)(nil)
	_ Scheduler = (*OnlineGreedy)(nil)
	_ Scheduler = (*OnlineHeuKKT)(nil)
)

// slotBatch is the placement round of slot t: the pending requests, built,
// each waiting since its arrival.
func slotBatch(eng *Engine, t int, pending []int) baseline.Batch {
	return baseline.Batch{
		Net:          eng.Net(),
		Reqs:         eng.Build(pending),
		Pending:      pending,
		Wait:         func(r *mec.Request) int { return t - r.ArrivalSlot },
		SlotLengthMS: eng.SlotLengthMS(),
	}
}

// Schedule implements Scheduler.
func (*OnlineOCORP) Schedule(eng *Engine, res *core.Result, t int, pending []int) ([]int, error) {
	return baseline.OCORPSlot(slotBatch(eng, t, pending), eng.ExpectedUsed(), res)
}

// Schedule implements Scheduler.
func (*OnlineGreedy) Schedule(eng *Engine, res *core.Result, t int, pending []int) ([]int, error) {
	return baseline.GreedySlot(slotBatch(eng, t, pending), eng.RunningProcMS(), res)
}

// Schedule implements Scheduler.
func (*OnlineHeuKKT) Schedule(eng *Engine, res *core.Result, t int, pending []int) ([]int, error) {
	return baseline.HeuKKTSlot(slotBatch(eng, t, pending), eng.ExpectedUsed(), res)
}

// Name implements Scheduler.
func (*OnlineOCORP) Name() string  { return "OCORP" }
func (*OnlineGreedy) Name() string { return "Greedy" }
func (*OnlineHeuKKT) Name() string { return "HeuKKT" }

// UncertaintyAware implements Scheduler.
func (*OnlineOCORP) UncertaintyAware() bool  { return false }
func (*OnlineGreedy) UncertaintyAware() bool { return false }
func (*OnlineHeuKKT) UncertaintyAware() bool { return false }

// Feedback implements Scheduler: the online baselines do not learn.
func (*OnlineOCORP) Feedback(int, float64)  {}
func (*OnlineGreedy) Feedback(int, float64) {}
func (*OnlineHeuKKT) Feedback(int, float64) {}
