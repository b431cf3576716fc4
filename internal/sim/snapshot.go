package sim

import (
	"fmt"
	"math"
	"slices"

	"mecoffload/internal/core"
	"mecoffload/internal/mec"
)

// RunningSnapshot serializes one in-service stream: everything release
// needs to undo the admission at departure. The serving daemon persists
// these so a restarted process resumes with the same streams occupying
// the same capacity.
type RunningSnapshot struct {
	// Request is the id of the running request within its engine.
	Request int `json:"request"`
	// EndSlot is the slot at whose start the stream departs.
	EndSlot int `json:"endSlot"`
	// Shares maps station -> realized MHz held there.
	Shares map[int]float64 `json:"shares"`
	// ExpShares maps station -> expected MHz in the oblivious view. It
	// names the same stations as Shares.
	ExpShares map[int]float64 `json:"expShares,omitempty"`
	// ProcStation and ProcMS record the backlog-proxy contribution.
	ProcStation int     `json:"procStation"`
	ProcMS      float64 `json:"procMS,omitempty"`
}

// NumRunning returns how many admitted streams currently occupy service
// instances.
func (e *Engine) NumRunning() int { return len(e.active) }

// SnapshotRunning captures the engine's in-service streams. The maps in
// the snapshots are fresh; mutating them does not perturb the engine.
func (e *Engine) SnapshotRunning() []RunningSnapshot {
	out := make([]RunningSnapshot, 0, len(e.active))
	for _, ru := range e.active {
		s := RunningSnapshot{
			Request:     ru.req,
			EndSlot:     ru.endSlot,
			Shares:      make(map[int]float64, len(ru.holds)),
			ExpShares:   make(map[int]float64, len(ru.holds)),
			ProcStation: ru.procStation,
			ProcMS:      ru.procMS,
		}
		for _, h := range ru.holds {
			s.Shares[h.station] = h.mhz
			s.ExpShares[h.station] = h.exp
		}
		out = append(out, s)
	}
	return out
}

// RestoreRunning re-registers previously snapshotted streams into a fresh
// engine, rebuilding the realized, expected, and backlog ledgers from
// their recorded holds. It must be called before the first Step and at
// most once. Nothing is restored unless every snapshot is one the engine
// could have written: its stations within the network, at least one
// realized share, expected shares on exactly the stations of the realized
// ones, every share and ProcMS finite and not negative, and the realized
// shares of all streams within each station's capacity.
//
// Every share and ProcMS is rounded down onto the mec.Quantum grid before
// it is summed. The engine writes values already on it, which rounding
// leaves as they are; a snapshot from before the grid holds values off it,
// and rounding down keeps the restored ledgers exact without lifting a
// station that was full over its capacity.
func (e *Engine) RestoreRunning(snaps []RunningSnapshot) error {
	if len(e.active) > 0 {
		return fmt.Errorf("sim: RestoreRunning on an engine with %d active streams", len(e.active))
	}
	active := make([]running, 0, len(snaps))
	load := make([]float64, e.net.NumStations())
	for i := range snaps {
		s := &snaps[i]
		if err := e.checkSnapshot(s); err != nil {
			return fmt.Errorf("sim: snapshot request %d: %w", s.Request, err)
		}
		ru := running{
			req:         s.Request,
			endSlot:     s.EndSlot,
			holds:       make([]hold, 0, len(s.Shares)),
			procStation: s.ProcStation,
			procMS:      mec.QuantizeDown(s.ProcMS),
		}
		for st, mhz := range s.Shares {
			h := hold{station: st, mhz: mec.QuantizeDown(mhz), exp: mec.QuantizeDown(s.ExpShares[st])}
			ru.holds = append(ru.holds, h)
			load[st] += h.mhz
		}
		slices.SortFunc(ru.holds, func(a, b hold) int { return a.station - b.station })
		active = append(active, ru)
	}
	for st, mhz := range load {
		if c := e.net.Capacity(st); mhz > c {
			return fmt.Errorf("sim: running streams hold %v MHz on station %d, over its %v MHz", mhz, st, c)
		}
	}
	for _, ru := range active {
		for _, h := range ru.holds {
			e.used[h.station] += h.mhz
			e.expected[h.station] += h.exp
		}
		e.procMS[ru.procStation] += ru.procMS
	}
	e.active = active
	return nil
}

// checkSnapshot reports why a running snapshot could not have come from
// SnapshotRunning over this engine's network, or nil.
func (e *Engine) checkSnapshot(s *RunningSnapshot) error {
	n := e.net.NumStations()
	if s.ProcStation < 0 || s.ProcStation >= n {
		return fmt.Errorf("proc station %d out of range", s.ProcStation)
	}
	if !finiteNonNegative(s.ProcMS) {
		return fmt.Errorf("procMS %v is negative or not finite", s.ProcMS)
	}
	if len(s.Shares) == 0 {
		return fmt.Errorf("holds no station")
	}
	for st, mhz := range s.Shares {
		if st < 0 || st >= n {
			return fmt.Errorf("station %d out of range", st)
		}
		if !finiteNonNegative(mhz) {
			return fmt.Errorf("share %v MHz on station %d is negative or not finite", mhz, st)
		}
	}
	for st, mhz := range s.ExpShares {
		if _, ok := s.Shares[st]; !ok {
			return fmt.Errorf("expected share on station %d, which holds no realized share", st)
		}
		if !finiteNonNegative(mhz) {
			return fmt.Errorf("expected share %v MHz on station %d is negative or not finite", mhz, st)
		}
	}
	if len(s.ExpShares) != len(s.Shares) {
		return fmt.Errorf("expected shares on %d stations, realized shares on %d", len(s.ExpShares), len(s.Shares))
	}
	return nil
}

// finiteNonNegative reports whether v is a finite number >= 0.
func finiteNonNegative(v float64) bool {
	return v >= 0 && !math.IsInf(v, 1)
}

// Compact drops every request of a live engine but those at the strictly
// ascending indices keep and renumbers the kept ones densely in that order:
// keep[k] becomes request k. Each keeps its key, its cut and stays the same
// *mec.Request value, with ID k (or stays a key alone, if it was not
// built), so it keeps its demand distribution, the access station a
// handover moved it to and the outcome it realized; its in-service stream,
// its res.Decisions entry and its place in pending follow it. Every running
// and every pending request must be kept. pending is remapped in place and
// returned. The key, cut and request slices and res.Decisions are
// renumbered in place and keep their capacity, so Compact allocates
// nothing. The ledgers, the drift cursors and the rng are not touched, so
// a compacted engine goes on deciding exactly as an uncompacted one would.
// On error nothing has changed.
func (e *Engine) Compact(keep []int, res *core.Result, pending []int) ([]int, error) {
	if len(res.Decisions) != len(e.reqs) {
		return pending, fmt.Errorf("sim: compact: %d decisions for %d requests", len(res.Decisions), len(e.reqs))
	}
	for k, j := range keep {
		if j < 0 || j >= len(e.reqs) || (k > 0 && j <= keep[k-1]) {
			return pending, fmt.Errorf("sim: compact: kept index %d out of order or range [0, %d)", j, len(e.reqs))
		}
	}
	// A kept request's new index is its position in keep.
	for _, ru := range e.active {
		if _, ok := slices.BinarySearch(keep, ru.req); !ok {
			return pending, fmt.Errorf("sim: compact would drop running request %d", ru.req)
		}
	}
	for _, j := range pending {
		if _, ok := slices.BinarySearch(keep, j); !ok {
			return pending, fmt.Errorf("sim: compact would drop pending request %d", j)
		}
	}
	for i := range e.active {
		e.active[i].req, _ = slices.BinarySearch(keep, e.active[i].req)
	}
	for i, j := range pending {
		pending[i], _ = slices.BinarySearch(keep, j)
	}
	// In place: keep ascends strictly, so keep[k] >= k and every move
	// reads an entry no earlier move has overwritten. The cleared tails
	// release the settled requests; the capacity stays for the arrivals
	// that follow.
	for k, j := range keep {
		e.keys[k], e.cut[k], e.reqs[k], res.Decisions[k] = e.keys[j], e.cut[j], e.reqs[j], res.Decisions[j]
		if r := e.reqs[k]; r != nil {
			r.ID = k
		}
		res.Decisions[k].RequestID = k
	}
	clear(e.keys[len(keep):])
	clear(e.reqs[len(keep):])
	clear(res.Decisions[len(keep):])
	e.keys, e.cut, e.reqs, res.Decisions = e.keys[:len(keep)], e.cut[:len(keep)], e.reqs[:len(keep)], res.Decisions[:len(keep)]
	return pending, nil
}
