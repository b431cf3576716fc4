package cluster

import (
	"errors"

	"mecoffload/internal/mec"
	"mecoffload/internal/serve"
)

// Migration phases. A migration is proposed by the sweep, priced by the
// free-capacity advantage of its target shard, and either committed
// through the two-phase handoff or aborted (below-hysteresis price, the
// request settled first, the deadline budget ran out, or the target
// refused).
const (
	PhaseProposed  = "proposed"
	PhasePriced    = "priced"
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

// sweepLocked runs one migration round under the cluster clock lock. It
// walks the router's worklist — the spanning requests that may still be
// pending, in ascending global id — and first asks each one's engine
// whether it still is: a request that is not (decided, expired, shed, or a
// terminal record the engine's table has since evicted) can never be
// pending at that shard again, so it leaves the worklist for good. The
// walk therefore costs the live spanning requests plus those settled
// since the last sweep, whatever the router has routed before.
//
// A still-pending request is proposed against the shard with the most
// spare capacity among its candidate owners — using the free-capacity
// fractions the shard workers computed inside this slot's tick epoch
// (shardNode.computeFreeFrac), so the sweep itself touches no engine
// gauges — priced by the free-fraction advantage, and committed through
// the two-phase handoff: phase one extracts the request from its source
// shard's planner (aborting benignly if it settled or started running
// first), phase two submits it to the target with a deadline shrunk by
// the time already waited. A refused phase two compensates by
// re-submitting to the source, so a request is never lost mid-handoff.
// Commits per sweep are capped by MigrationBurst; past the cap the walk
// only prunes. It only prunes on a draining cluster too: intake is closed
// on every shard, phase two and its compensation would both be refused,
// and what cannot be put back is never extracted (Drain takes the clock
// lock, so intake cannot close between a proposal and its phase two).
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
		m := Migration{Global: sc.global, From: sc.shard, To: target, Price: best, Slot: c.slot}

		// Status reads the engine's request table without disturbing the
		// planner; anything but pending is final for this shard/ext.
		rec, ok, err := src.eng.Status(sc.ext)
		if err != nil || !ok || rec.State != serve.StatePending {
			settled = append(settled, sc.global)
			if proposed {
				m.Phase, m.Reason = PhaseAborted, "settled"
				c.journalAppend(m)
			}
			continue
		}
		if !proposed {
			continue
		}
		// Phase one: extract from the source planner.
		spec, arrival, err := src.eng.Extract(sc.ext)
		if err != nil {
			m.Phase, m.Reason = PhaseAborted, err.Error()
			if errors.Is(err, serve.ErrNotPending) {
				// Pending in the table but not the planner's to give: still
				// queued in the ingest ring, or shed since Status answered.
				// It stays listed; the next sweep's Status tells which.
				m.Reason = "not in planner"
			}
			c.journalAppend(m)
			continue
		}
		waited := c.slot - arrival
		if waited < 0 {
			waited = 0
		}
		// Globalize the source-local spec before re-homing it.
		spec.AccessStation = src.stations[spec.AccessStation]
		spec.DeadlineMS = shrinkDeadline(spec, waited, c.cfg.SlotLengthMS)
		if spec.DeadlineMS <= 0 {
			// Out of budget: hand it back to the source rather than grant
			// the move free time. It will expire where it waited.
			spec.DeadlineMS = c.cfg.SlotLengthMS / 2
			if ext, rerr := c.rehome(sc.shard, spec, sc.cands); rerr == nil {
				c.router.rebind(sc.global, sc.shard, ext, true)
			}
			m.Phase, m.Reason = PhaseAborted, "deadline exhausted"
			c.journalAppend(m)
			continue
		}
		// Phase two: commit at the target.
		ext, err := c.rehome(target, spec, sc.cands)
		if err != nil {
			// Compensate: the request goes back to its source shard.
			m.Phase, m.Reason = PhaseAborted, "target refused: "+err.Error()
			if rext, rerr := c.rehome(sc.shard, spec, sc.cands); rerr == nil {
				c.router.rebind(sc.global, sc.shard, rext, true)
			} else {
				c.cfg.Logf("cluster: migration %d lost compensation (source: %v, target: %v)",
					sc.global, rerr, err)
				m.Reason += "; compensation failed: " + rerr.Error()
			}
			c.journalAppend(m)
			continue
		}
		c.router.rebind(sc.global, target, ext, true)
		src.migratedOut.Add(1)
		c.nodes[target].migratedIn.Add(1)
		m.Phase = PhaseCommitted
		c.journalAppend(m)
		committed++
	}
	c.sweepSettled = settled
	c.router.pruneSpanning(settled)
}
