// Non-stationary environment support: scripted mobility handovers and
// correlated station outages applied between scheduling slots. Rate and
// reward drift live in the workload (requests carry their own
// distributions); what the engine must additionally model is the
// network-side drift — stations losing capacity and users moving between
// access stations mid-stream — which no per-request data can express.
package sim

import (
	"fmt"
	"slices"
	"sort"
)

// Handover moves every request still pending at Slot whose access
// station is From over to To — the scripted version of a user cluster
// migrating between cells. Requests arriving after Slot are expected to
// carry their post-handover access station already (the scenario
// materializer does this); the engine only re-points the queue.
type Handover struct {
	Slot int `json:"slot"`
	From int `json:"from"`
	To   int `json:"to"`
}

// Outage scales station Station's capacity by Scale during slots
// [Start, End). Scale 0 is a full outage. In-flight streams holding
// shares on the station are evicted when the outage begins — the
// instance is gone, regardless of partial remaining capacity — while
// rewards already credited at admission stay credited (the paper's
// semantics credit the full stream reward at admission; an outage is a
// provider-side loss, not a reward clawback).
type Outage struct {
	Station int     `json:"station"`
	Start   int     `json:"start"`
	End     int     `json:"end"`
	Scale   float64 `json:"scale"`
}

// Drift is the scripted network-side non-stationarity of one run.
type Drift struct {
	Handovers []Handover `json:"handovers,omitempty"`
	Outages   []Outage   `json:"outages,omitempty"`
}

// driftState tracks how far into the event script the engine has
// advanced. Events are pre-sorted by slot; cursors only move forward, so
// per-slot cost is O(events due this slot).
type driftState struct {
	handovers []Handover // sorted by Slot
	starts    []Outage   // sorted by Start
	ends      []Outage   // sorted by End
	hCur      int
	sCur      int
	eCur      int
}

// Validate checks the drift script against a station count: indices in
// range, windows well-formed, scales in [0, 1], and no overlapping
// outage windows on the same station (last-wins would silently mask one
// of them).
func (d *Drift) Validate(nS int) error {
	if d == nil {
		return nil
	}
	for _, h := range d.Handovers {
		if h.Slot < 0 {
			return fmt.Errorf("sim: handover at negative slot %d", h.Slot)
		}
		if h.From < 0 || h.From >= nS || h.To < 0 || h.To >= nS {
			return fmt.Errorf("sim: handover %d->%d out of range [0, %d)", h.From, h.To, nS)
		}
		if h.From == h.To {
			return fmt.Errorf("sim: handover %d->%d is a no-op", h.From, h.To)
		}
	}
	byStation := map[int][]Outage{}
	for _, o := range d.Outages {
		if o.Station < 0 || o.Station >= nS {
			return fmt.Errorf("sim: outage station %d out of range [0, %d)", o.Station, nS)
		}
		if o.Start < 0 || o.End <= o.Start {
			return fmt.Errorf("sim: outage window [%d, %d) invalid", o.Start, o.End)
		}
		if o.Scale < 0 || o.Scale >= 1 || o.Scale != o.Scale {
			return fmt.Errorf("sim: outage scale %v out of [0, 1)", o.Scale)
		}
		byStation[o.Station] = append(byStation[o.Station], o)
	}
	for st, os := range byStation {
		sort.Slice(os, func(i, j int) bool { return os[i].Start < os[j].Start })
		for i := 1; i < len(os); i++ {
			if os[i].Start < os[i-1].End {
				return fmt.Errorf("sim: station %d outages [%d, %d) and [%d, %d) overlap",
					st, os[i-1].Start, os[i-1].End, os[i].Start, os[i].End)
			}
		}
	}
	return nil
}

// SetDrift installs (or, with nil, removes) the drift script. Call it
// before the first Step; transitions fire at the start of the slot they
// are scheduled for.
func (e *Engine) SetDrift(d *Drift) error {
	if d == nil {
		e.drift = nil
		return nil
	}
	if err := d.Validate(e.net.NumStations()); err != nil {
		return err
	}
	st := &driftState{
		handovers: append([]Handover(nil), d.Handovers...),
		starts:    append([]Outage(nil), d.Outages...),
		ends:      append([]Outage(nil), d.Outages...),
	}
	sort.SliceStable(st.handovers, func(i, j int) bool { return st.handovers[i].Slot < st.handovers[j].Slot })
	sort.SliceStable(st.starts, func(i, j int) bool { return st.starts[i].Start < st.starts[j].Start })
	sort.SliceStable(st.ends, func(i, j int) bool { return st.ends[i].End < st.ends[j].End })
	e.drift = st
	return nil
}

// applyDrift fires every transition due at or before slot t: outage ends
// (capacity restored), outage starts (capacity scaled, in-flight streams
// on the station evicted), then handovers (pending queue re-pointed, and
// each moved request's cut filed again from its new access station).
// Runs after release(t) so a stream departing exactly at t is a normal
// departure, not an outage eviction. Eviction is set-based — every
// running stream holding shares on the dead station goes — so the
// outcome is independent of the active-list order, which keeps
// single-engine and sharded-cluster replays identical.
func (e *Engine) applyDrift(t int, pending []int, rep *SlotReport) {
	d := e.drift
	if d == nil {
		return
	}
	for d.eCur < len(d.ends) && d.ends[d.eCur].End <= t {
		o := d.ends[d.eCur]
		d.eCur++
		if o.End == t { // windows fully in the past were never applied
			_ = e.net.SetCapacityScale(o.Station, 1)
		}
	}
	for d.sCur < len(d.starts) && d.starts[d.sCur].Start <= t {
		o := d.starts[d.sCur]
		d.sCur++
		if o.Start < t || o.End <= t {
			continue // stale: engine started past this window
		}
		_ = e.net.SetCapacityScale(o.Station, o.Scale)
		rep.OutageEvicted = append(rep.OutageEvicted, e.evictStation(o.Station)...)
	}
	for d.hCur < len(d.handovers) && d.handovers[d.hCur].Slot <= t {
		h := d.handovers[d.hCur]
		d.hCur++
		if h.Slot < t {
			continue
		}
		for _, j := range pending {
			if e.keys[j].AccessStation == h.From {
				e.keys[j].AccessStation = h.To
				e.cut[j] = lastFeasibleSlot(e.net, &e.keys[j], e.slotL)
				if r := e.reqs[j]; r != nil {
					r.AccessStation = h.To
				}
				rep.HandedOver = append(rep.HandedOver, j)
			}
		}
	}
}

// evictStation removes every running stream holding realized shares on
// station st, subtracting its holds on all stations it touches. Returns
// the evicted request ids in active order.
func (e *Engine) evictStation(st int) []int {
	var evicted []int
	keep := e.active[:0]
	for _, ru := range e.active {
		if !slices.ContainsFunc(ru.holds, func(h hold) bool { return h.station == st }) {
			keep = append(keep, ru)
			continue
		}
		evicted = append(evicted, ru.req)
		e.drop(&ru)
	}
	e.active = keep
	return evicted
}
