package cluster

import (
	"errors"

	"mecoffload/internal/mec"
	"mecoffload/internal/serve"
)

// Migration phases. The sweep proposes a migration when the free-capacity
// advantage of the target shard reaches the hysteresis, and journals it as
// committed through the two-phase handoff or as aborted (the request
// settled first, the deadline budget ran out, or the target refused).
const (
	PhaseCommitted = "committed"
	PhaseAborted   = "aborted"
)

// Migration is one journal entry of the cross-shard handoff protocol.
type Migration struct {
	Global uint64  `json:"global"`
	From   int     `json:"from"`
	To     int     `json:"to"`
	Price  float64 `json:"price"` // free-capacity-fraction advantage at proposal time
	Phase  string  `json:"phase"`
	Reason string  `json:"reason,omitempty"`
	Slot   int     `json:"slot"`
}

// journalCap is the size of the migration journal, a fixed ring: an
// append overwrites the oldest entry and moves nothing.
const journalCap = 256

// Migrations returns a copy of the bounded migration journal, oldest
// first.
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
// waiting `waited` slots at its current shard. A migrated request
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
// c.mu).
func (c *Cluster) rehome(shard int, id uint64, spec serve.RequestSpec, spanCands []int) error {
	_, err := c.nodes[shard].eng.SubmitAs(id, c.localSpec(shard, spec, spanCands))
	if err == nil {
		c.nodes[shard].rehomedIn++
	}
	return err
}

// handoff is the one way a pending request changes shards, for the
// migration sweep and for a cross-partition handover alike (callers hold
// c.mu). Phase one extracts the request from shard `from`'s planner, which
// fails benignly if it settled or started running first. Phase two submits
// it to shard `to` under the same id, at global access station `station`
// (negative: the one it had), with a deadline shrunk by the time already
// waited, so the move never grants extra time. A request out of budget, or
// one the target refuses, goes back to `from` as it was, so none is lost
// mid-handoff; `listed` says whether it remains a migration candidate
// wherever it ends up. The result is empty when the move committed and
// otherwise why it did not.
func (c *Cluster) handoff(id uint64, from, to, station int, cands []int, listed bool) string {
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
		if station >= 0 {
			moved.AccessStation = station
		}
		err := c.rehome(to, id, moved, cands)
		if err == nil {
			c.router.move(id, to, listed)
			src.migratedOut.Add(1)
			c.nodes[to].migratedIn.Add(1)
			return ""
		}
		reason = "target refused: " + err.Error()
	}
	if err := c.rehome(from, id, spec, cands); err != nil {
		c.cfg.Logf("cluster: request %d lost compensation on its way from shard %d to %d (%s; source: %v)",
			id, from, to, reason, err)
		return reason + "; compensation failed: " + err.Error()
	}
	c.router.move(id, from, listed)
	return reason
}

// sweepLocked runs one migration round under the cluster clock lock. It
// walks the router's worklist — the spanning requests that may still be
// pending, in ascending id — and first asks each one's engine whether it
// still is: a request that is not (decided, expired, shed, or a terminal
// record the engine's table has since evicted) can never be pending at that
// shard again, so it leaves the worklist for good. The walk therefore costs
// the live spanning requests plus those settled since the last sweep,
// whatever the router has routed before.
//
// A still-pending request is proposed against the shard with the most
// spare capacity among its candidate owners — using the free-capacity
// fractions the shards computed inside this slot's tick epoch
// (shardNode.computeFreeFrac), so the sweep itself touches no engine
// gauges — priced by the free-fraction advantage, and committed through
// handoff. Commits per sweep are capped by MigrationBurst; past the cap the
// walk only prunes. It only prunes on a draining cluster too: intake is
// closed on every shard, phase two and its compensation would both be
// refused, and what cannot be put back is never extracted (Drain takes the
// clock lock, so intake cannot close between a proposal and its phase two).
//
// Only real proposals are journaled, and a request is journaled as
// "settled" at most once: that entry is written when it is pruned.
func (c *Cluster) sweepLocked() {
	work := c.router.spanningRequests(c.sweepWork[:0])
	c.sweepWork = work
	settled := c.sweepSettled[:0]
	committed := 0
	draining := c.drainFlag.Load()
	for _, sc := range work {
		src := c.nodes[sc.shard]
		// Propose: best alive target shard owning at least one candidate.
		target, best := -1, 0.0
		for _, st := range sc.cands {
			k := c.owner[st]
			if k == sc.shard || !c.nodes[k].eng.Alive() {
				continue
			}
			if adv := c.nodes[k].freeFrac - src.freeFrac; target < 0 || adv > best {
				target, best = k, adv
			}
		}
		// Below the hysteresis the move is not worth the handoff and the
		// request stays put, unjournaled.
		proposed := !draining && committed < c.cfg.MigrationBurst && src.eng.Alive() &&
			target >= 0 && best >= c.cfg.MigrationHysteresis
		m := Migration{Global: sc.id, From: sc.shard, To: target, Price: best, Phase: PhaseAborted, Slot: c.slot}

		// Status reads the engine's request table without disturbing the
		// planner; anything but pending is final for this request here.
		rec, ok, err := src.eng.Status(sc.id)
		if err != nil || !ok || rec.State != serve.StatePending {
			settled = append(settled, sc.id)
			if proposed {
				m.Reason = "settled"
				c.journalAppend(m)
			}
			continue
		}
		if !proposed {
			continue
		}
		// A request the planner would not give up stays listed; the next
		// sweep's Status tells whether it was at the door or has settled.
		if m.Reason = c.handoff(sc.id, sc.shard, target, -1, sc.cands, true); m.Reason == "" {
			m.Phase = PhaseCommitted
			committed++
		}
		c.journalAppend(m)
	}
	clear(work) // the worklist's candidate lists are not the scratch's to keep alive
	c.sweepSettled = settled
	c.router.pruneSpanning(settled)
}
