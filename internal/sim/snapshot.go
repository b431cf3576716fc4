package sim

import (
	"fmt"
	"slices"

	"mecoffload/internal/core"
	"mecoffload/internal/mec"
)

// RunningSnapshot serializes one in-service stream's exact ledger deltas:
// everything release needs to undo the admission at departure. The
// serving daemon persists these so a restarted process resumes with the
// same streams occupying the same capacity.
type RunningSnapshot struct {
	// Request is the id of the running request within its engine.
	Request int `json:"request"`
	// EndSlot is the slot at whose start the stream departs.
	EndSlot int `json:"endSlot"`
	// Shares maps station -> realized MHz held there.
	Shares map[int]float64 `json:"shares"`
	// ExpShares maps station -> expected MHz in the oblivious view.
	ExpShares map[int]float64 `json:"expShares,omitempty"`
	// ProcStation and ProcMS record the backlog-proxy contribution.
	ProcStation int     `json:"procStation"`
	ProcMS      float64 `json:"procMS,omitempty"`
}

// NumRunning returns how many admitted streams currently occupy service
// instances.
func (e *Engine) NumRunning() int { return len(e.active) }

// SnapshotRunning captures the engine's in-service streams. The maps in
// the snapshots are copies; mutating them does not perturb the engine.
func (e *Engine) SnapshotRunning() []RunningSnapshot {
	out := make([]RunningSnapshot, 0, len(e.active))
	for _, ru := range e.active {
		s := RunningSnapshot{
			Request:     ru.req,
			EndSlot:     ru.endSlot,
			Shares:      copyShares(ru.shares),
			ExpShares:   copyShares(ru.expShares),
			ProcStation: ru.procStation,
			ProcMS:      ru.procMS,
		}
		out = append(out, s)
	}
	return out
}

// RestoreRunning re-registers previously snapshotted streams into a fresh
// engine, rebuilding the realized, expected, and backlog ledgers from
// their recorded deltas. It must be called before the first Step and at
// most once; station indices are validated against the network.
func (e *Engine) RestoreRunning(snaps []RunningSnapshot) error {
	if len(e.active) > 0 {
		return fmt.Errorf("sim: RestoreRunning on an engine with %d active streams", len(e.active))
	}
	n := e.net.NumStations()
	for _, s := range snaps {
		if s.ProcStation < 0 || s.ProcStation >= n {
			return fmt.Errorf("sim: snapshot request %d: proc station %d out of range", s.Request, s.ProcStation)
		}
		for st := range s.Shares {
			if st < 0 || st >= n {
				return fmt.Errorf("sim: snapshot request %d: station %d out of range", s.Request, st)
			}
		}
		for st := range s.ExpShares {
			if st < 0 || st >= n {
				return fmt.Errorf("sim: snapshot request %d: station %d out of range", s.Request, st)
			}
		}
	}
	for _, s := range snaps {
		ru := running{
			req:         s.Request,
			endSlot:     s.EndSlot,
			shares:      copyShares(s.Shares),
			expShares:   copyShares(s.ExpShares),
			procStation: s.ProcStation,
			procMS:      s.ProcMS,
		}
		if ru.shares == nil {
			ru.shares = map[int]float64{}
		}
		if ru.expShares == nil {
			ru.expShares = map[int]float64{}
		}
		for st, mhz := range ru.shares {
			e.used[st] += mhz
		}
		for st, mhz := range ru.expShares {
			e.expected[st] += mhz
		}
		e.procMS[ru.procStation] += ru.procMS
		e.active = append(e.active, ru)
	}
	return nil
}

// Compact drops every request of a live engine but those at the strictly
// ascending indices keep and renumbers the kept ones densely in that order:
// keep[k] becomes request k. They stay the same *mec.Request values, with
// ID k, so each keeps its demand distribution, the access station a
// handover moved it to and the outcome it realized; its in-service stream,
// its res.Decisions entry and its place in pending follow it. Every running
// and every pending request must be kept. pending is remapped in place and
// returned. The ledgers, the drift cursors and the rng are not touched, so
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
	// Fresh slices sized to the live set, not the backlog's high-water
	// mark: between compactions they grow with arrivals as before.
	reqs := make([]*mec.Request, len(keep))
	decisions := make([]core.Decision, len(keep))
	for k, j := range keep {
		reqs[k], decisions[k] = e.reqs[j], res.Decisions[j]
		reqs[k].ID, decisions[k].RequestID = k, k
	}
	e.reqs, res.Decisions = reqs, decisions
	return pending, nil
}

// copyShares clones a station->MHz map (nil stays nil).
func copyShares(m map[int]float64) map[int]float64 {
	if m == nil {
		return nil
	}
	out := make(map[int]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
