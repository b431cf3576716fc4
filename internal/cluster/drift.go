package cluster

import (
	"sort"

	"mecoffload/internal/sim"
)

// splitDrift partitions a global-id drift script across the shards.
// Outages and same-shard handovers translate to shard-local station ids
// and run inside that shard's planner, exactly as they would in a single
// engine. Handovers whose From and To stations live in different shards
// cannot be expressed by any one planner — those return separately,
// sorted by slot, for the cluster clock to apply through the two-phase
// handoff (applyCrossHandoversLocked).
func splitDrift(d *sim.Drift, owner []int, nodes []*shardNode) (perShard []*sim.Drift, cross []sim.Handover) {
	perShard = make([]*sim.Drift, len(nodes))
	shardDrift := func(k int) *sim.Drift {
		if perShard[k] == nil {
			perShard[k] = &sim.Drift{}
		}
		return perShard[k]
	}
	for _, o := range d.Outages {
		k := owner[o.Station]
		lo := o
		lo.Station = nodes[k].localOf[o.Station]
		sd := shardDrift(k)
		sd.Outages = append(sd.Outages, lo)
	}
	for _, h := range d.Handovers {
		from, to := owner[h.From], owner[h.To]
		if from != to {
			cross = append(cross, h)
			continue
		}
		lh := h
		lh.From = nodes[from].localOf[h.From]
		lh.To = nodes[from].localOf[h.To]
		sd := shardDrift(from)
		sd.Handovers = append(sd.Handovers, lh)
	}
	sort.SliceStable(cross, func(i, j int) bool { return cross[i].Slot < cross[j].Slot })
	return perShard, cross
}

// applyCrossHandoversLocked fires every cross-partition handover due at
// the current slot, before the shards tick: each pending request at the
// From station goes through handoff to the To station's shard, so the
// request keeps its id and no budget is gained or lost. A single engine
// re-points such requests in place with their arrival clock intact;
// shrinking the deadline by the elapsed wait leaves the re-homed request
// the identical remaining budget, which is what keeps decision dumps
// parity-comparable across shard counts (TestClusterHandoverAcrossPartition
// pins this). Every attempt lands in the handoff journal (Migrations).
//
// A handover that falls due on a draining cluster is dropped and its
// requests stay at the From station: the To shard's intake is closed, and
// what cannot be put back is never extracted.
func (c *Cluster) applyCrossHandoversLocked() {
	draining := c.drainFlag.Load()
	for c.crossCur < len(c.crossHandovers) && c.crossHandovers[c.crossCur].Slot <= c.slot {
		h := c.crossHandovers[c.crossCur]
		c.crossCur++
		if h.Slot < c.slot {
			continue // stale: the cluster restored past this slot
		}
		src := c.nodes[c.owner[h.From]]
		dst := c.nodes[c.owner[h.To]]
		if draining || !src.eng.Alive() || !dst.eng.Alive() {
			continue
		}
		fromLocal, ok := src.localOf[h.From]
		if !ok {
			continue
		}
		// Door residue must be visible: a request batch-submitted just
		// before this tick hands over in a single engine (its slot drains
		// the door before the slot's drift transitions fire).
		if err := src.eng.Flush(); err != nil {
			c.cfg.Logf("cluster: handover %d->%d flush: %v", h.From, h.To, err)
		}
		snap, err := src.eng.Snapshot()
		if err != nil {
			c.cfg.Logf("cluster: handover %d->%d snapshot: %v", h.From, h.To, err)
			continue
		}
		// snap.Requests is in ascending id, which fixes the order the target
		// shard sees the requests in. One that settled since the snapshot
		// fails phase one and stays where it is.
		for _, cr := range snap.Requests {
			if !cr.Running && cr.Spec.AccessStation == fromLocal {
				c.handoff(cr.ExternalID, src.idx, dst.idx, h.To)
			}
		}
	}
}
