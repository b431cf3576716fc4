package cluster

import (
	"errors"

	"mecoffload/internal/mec"
	"mecoffload/internal/serve"
)

// Handoff phases: a handoff is journaled as committed when the request
// moved, and as aborted when it stayed (it settled first, its deadline
// budget ran out, or the target refused).
const (
	PhaseCommitted = "committed"
	PhaseAborted   = "aborted"
)

// Migration is one journal entry: one attempt of the cross-shard handoff.
type Migration struct {
	Global uint64 `json:"global"`
	From   int    `json:"from"`
	To     int    `json:"to"`
	Phase  string `json:"phase"`
	Reason string `json:"reason,omitempty"`
	Slot   int    `json:"slot"`
}

// journalCap is the size of the handoff journal, a fixed ring: an append
// overwrites the oldest entry and moves nothing.
const journalCap = 256

// Migrations returns a copy of the bounded handoff journal, oldest first.
func (c *Cluster) Migrations() []Migration {
	c.migMu.Lock()
	defer c.migMu.Unlock()
	n := min(c.journalN, journalCap)
	out := make([]Migration, 0, n)
	for i := c.journalN - n; i < c.journalN; i++ {
		out = append(out, c.journal[i%journalCap])
	}
	return out
}

func (c *Cluster) journalAppend(m Migration) {
	c.migMu.Lock()
	c.journal[c.journalN%journalCap] = m
	c.journalN++
	c.migMu.Unlock()
}

// MigratedCounts returns the per-shard committed handoff counters.
func (c *Cluster) MigratedCounts() (in, out []uint64) {
	in = make([]uint64, len(c.nodes))
	out = make([]uint64, len(c.nodes))
	for k, nd := range c.nodes {
		in[k] = nd.migratedIn.Load()
		out[k] = nd.migratedOut.Load()
	}
	return in, out
}

// shrinkDeadline returns the deadline budget a request has left after
// waiting `waited` slots at its current shard. A handed-off request
// re-enters the target's intake with this shrunk deadline, so the
// handoff never grants extra time; non-positive means the request is no
// longer worth moving.
func shrinkDeadline(spec serve.RequestSpec, waited int, slotMS float64) float64 {
	d := spec.DeadlineMS
	if d == 0 {
		d = mec.DefaultDeadlineMS
	}
	return d - float64(waited)*slotMS
}

// rehome re-submits an already-accepted request to a shard on the clock's
// behalf, under the id it has had since it was first accepted (callers hold
// c.mu). The spec's access station is a global one the shard owns.
func (c *Cluster) rehome(shard int, id uint64, spec serve.RequestSpec) error {
	_, err := c.nodes[shard].eng.SubmitAs(id, c.localSpec(shard, spec, nil))
	if err == nil {
		c.nodes[shard].rehomedIn++
	}
	return err
}

// handoff is the one way a pending request changes shards: a
// cross-partition handover moves it from shard `from` to global access
// station `station` on shard `to` (callers hold c.mu). Phase one extracts
// the request from the source planner, which fails benignly if it settled
// or started running first. Phase two submits it to the target under the
// same id, with a deadline shrunk by the time already waited, so the move
// never grants extra time. A request out of budget, or one the target
// refuses, goes back to `from` as it was, so none is lost mid-handoff.
// Every attempt is journaled: committed when the request moved, aborted
// with the reason when it did not.
func (c *Cluster) handoff(id uint64, from, to, station int) {
	m := Migration{Global: id, From: from, To: to, Phase: PhaseAborted, Slot: c.slot}
	if m.Reason = c.moveRequest(id, from, to, station); m.Reason == "" {
		m.Phase = PhaseCommitted
	}
	c.journalAppend(m)
}

// moveRequest carries out handoff's two phases and returns why the request
// stayed, or "" when it moved.
func (c *Cluster) moveRequest(id uint64, from, to, station int) string {
	src := c.nodes[from]
	spec, arrival, err := src.eng.Extract(id)
	if errors.Is(err, serve.ErrNotPending) {
		// Pending in the table but not the planner's to give: still queued
		// at the door, or settled since the caller looked.
		return "not in planner"
	}
	if err != nil {
		return err.Error()
	}
	spec.AccessStation = src.stations[spec.AccessStation]
	spec.DeadlineMS = shrinkDeadline(spec, max(c.slot-arrival, 0), c.cfg.SlotLengthMS)
	var reason string
	if spec.DeadlineMS <= 0 {
		// Out of budget: it expires where it waited, as it would have in a
		// single engine, rather than gain time by moving.
		spec.DeadlineMS = c.cfg.SlotLengthMS / 2
		reason = "deadline exhausted"
	} else {
		moved := spec
		moved.AccessStation = station
		err := c.rehome(to, id, moved)
		if err == nil {
			c.router.move(id, to)
			src.migratedOut.Add(1)
			c.nodes[to].migratedIn.Add(1)
			return ""
		}
		reason = "target refused: " + err.Error()
	}
	if err := c.rehome(from, id, spec); err != nil {
		c.cfg.Logf("cluster: request %d lost compensation on its way from shard %d to %d (%s; source: %v)",
			id, from, to, reason, err)
		return reason + "; compensation failed: " + err.Error()
	}
	return reason // back where the router already places it
}
