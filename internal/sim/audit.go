package sim

import (
	"mecoffload/internal/core"
	"mecoffload/internal/mec"
)

// AuditTimeline verifies an online result with core.Audit's checks, time
// expanded: every served request occupies its realized demand shares on
// its task stations from its scheduling slot for its stream duration, and
// at no slot may a station's total served load exceed its capacity. Use
// it instead of core.Audit for Engine results (capacity is shared over
// time).
func AuditTimeline(n *mec.Network, reqs []*mec.Request, res *core.Result) error {
	return core.AuditOver(n, reqs, res, func(r *mec.Request, d *core.Decision) (int, int) {
		start := r.ArrivalSlot + d.WaitSlots
		return start, start + r.HoldSlots()
	})
}
