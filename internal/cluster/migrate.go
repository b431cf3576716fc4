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

const journalCap = 256

// Migrations returns a copy of the bounded migration journal, oldest
// first.
func (c *Cluster) Migrations() []Migration {
	c.migMu.Lock()
	defer c.migMu.Unlock()
	return append([]Migration(nil), c.journal...)
}

func (c *Cluster) journalAppend(m Migration) {
	c.migMu.Lock()
	c.journal = append(c.journal, m)
	if over := len(c.journal) - journalCap; over > 0 {
		c.journal = append(c.journal[:0], c.journal[over:]...)
	}
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

// sweepLocked runs one migration round under the cluster clock lock:
// every still-pending spanning request is proposed against the shard
// with the most spare capacity among its candidate owners — using the
// free-capacity fractions the shard workers computed inside this slot's
// tick epoch (shardNode.computeFreeFrac), so the sweep itself touches no
// engine gauges — priced by the free-fraction advantage, and committed
// through the two-phase handoff — phase one extracts the request from its source shard's
// planner (aborting benignly if it settled or started running first),
// phase two submits it to the target with a deadline shrunk by the time
// already waited. A refused phase two compensates by re-submitting to
// the source, so a request is never lost mid-handoff. Commits per sweep
// are capped by MigrationBurst.
func (c *Cluster) sweepLocked() {
	work := c.router.spanningRequests()
	if len(work) == 0 {
		return
	}
	committed := 0
	for _, sc := range work {
		if committed >= c.cfg.MigrationBurst {
			break
		}
		src := c.nodes[sc.shard]
		if !src.eng.Alive() {
			continue
		}
		// Propose: best alive target shard owning at least one candidate.
		target, best := -1, 0.0
		for _, st := range sc.cands {
			k := c.owner[st]
			if k == sc.shard || !c.nodes[k].eng.Alive() {
				continue
			}
			if adv := c.nodes[k].freeFrac - c.nodes[sc.shard].freeFrac; target < 0 || adv > best {
				target, best = k, adv
			}
		}
		if target < 0 {
			continue
		}
		m := Migration{Global: sc.global, From: sc.shard, To: target, Price: best, Slot: c.slot}
		if best < c.cfg.MigrationHysteresis {
			// Not worth the handoff; stay put. Only journal real proposals.
			continue
		}
		m.Phase = PhasePriced

		// The deadline budget check needs the arrival slot, which Status
		// knows without disturbing the planner.
		rec, ok, err := src.eng.Status(sc.ext)
		if err != nil || !ok || rec.State != serve.StatePending {
			m.Phase, m.Reason = PhaseAborted, "settled"
			c.journalAppend(m)
			continue
		}
		// Phase one: extract from the source planner.
		spec, arrival, err := src.eng.Extract(sc.ext)
		if err != nil {
			m.Phase = PhaseAborted
			if errors.Is(err, serve.ErrNotPending) {
				m.Reason = "settled" // decided between Status and Extract
			} else {
				m.Reason = err.Error()
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
}
