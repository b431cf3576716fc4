package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"

	"mecoffload/internal/bandit"
	"mecoffload/internal/ckpt"
	"mecoffload/internal/core"
	"mecoffload/internal/sim"
)

// checkpointVersion guards the on-disk layout; a daemon refuses to
// restore a checkpoint written by an incompatible build.
const checkpointVersion = 1

// CheckpointVersion is the current on-disk checkpoint layout version,
// exported so the cluster manifest can stamp the per-shard checkpoints
// it composes during a resharded restore.
const CheckpointVersion = checkpointVersion

// ErrNoCheckpoint reports that the checkpoint file does not exist.
var ErrNoCheckpoint = errors.New("serve: no checkpoint")

// Totals persists the cumulative counters across restarts.
type Totals struct {
	Submitted uint64  `json:"submitted"`
	Rejected  uint64  `json:"rejected"`
	Admitted  uint64  `json:"admitted"`
	Served    uint64  `json:"served"`
	Evicted   uint64  `json:"evicted"`
	Expired   uint64  `json:"expired"`
	Departed  uint64  `json:"departed"`
	Ticks     uint64  `json:"ticks"`
	Reward    float64 `json:"reward"`
	// Batched-ingest counters; absent (zero) in checkpoints written
	// before the bulk intake path existed.
	Batches   uint64 `json:"batches,omitempty"`
	BatchReqs uint64 `json:"batchRequests,omitempty"`
	Shed      uint64 `json:"shed,omitempty"`
	Saturated uint64 `json:"saturated,omitempty"`
}

// CheckpointRequest is one live (pending or in-service) request.
type CheckpointRequest struct {
	ExternalID  uint64      `json:"id"`
	ArrivalSlot int         `json:"arrivalSlot"`
	Running     bool        `json:"running,omitempty"`
	Spec        RequestSpec `json:"spec"`
}

// Checkpoint is the daemon's durable state: the slot clock, the id
// allocator, the bandit's arm statistics, every live request's spec, and
// the exact ledger deltas of the in-flight streams. Running entries key
// streams by EXTERNAL request id; install remaps them onto the dense
// internal ids the rebuilt planner assigns.
type Checkpoint struct {
	Version        int                       `json:"version"`
	Slot           int                       `json:"slot"`
	NextExternalID uint64                    `json:"nextExternalId"`
	Scheduler      string                    `json:"scheduler"`
	Bandit         *bandit.LipschitzSnapshot `json:"bandit,omitempty"`
	Requests       []CheckpointRequest       `json:"requests,omitempty"`
	Running        []sim.RunningSnapshot     `json:"running,omitempty"`
	Totals         Totals                    `json:"totals"`
}

// WriteCheckpoint atomically persists a checkpoint (ckpt.WriteFileAtomic:
// temp file in the same directory, fsync, rename). A crash mid-write
// leaves the previous checkpoint intact.
func WriteCheckpoint(path string, ck *Checkpoint) error {
	data, err := json.MarshalIndent(ck, "", " ")
	if err != nil {
		return fmt.Errorf("serve: encoding checkpoint: %w", err)
	}
	if err := ckpt.WriteFileAtomic(path, data); err != nil {
		return fmt.Errorf("serve: writing checkpoint %s: %w", path, err)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint; ErrNoCheckpoint when the file is
// absent.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNoCheckpoint
	}
	if err != nil {
		return nil, fmt.Errorf("serve: reading checkpoint: %w", err)
	}
	return DecodeCheckpoint(data, path)
}

// DecodeCheckpoint decodes and version-checks checkpoint bytes the caller
// already read; name is only for error messages.
func DecodeCheckpoint(data []byte, name string) (*Checkpoint, error) {
	var ck Checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("serve: decoding checkpoint %s: %w", name, err)
	}
	if ck.Version != checkpointVersion {
		return nil, fmt.Errorf("serve: checkpoint %s has version %d, want %d", name, ck.Version, checkpointVersion)
	}
	return &ck, nil
}

// installEmpty sets up the new engine's planner with no requests; New
// calls it once, directly or through install, before the table holds a
// row.
func (e *Engine) installEmpty() error {
	planner, err := sim.NewLiveEngine(e.cfg.Net, e.cfg.Rng, e.cfg.SlotLengthMS)
	if err != nil {
		return err
	}
	planner.SetStepChecker(e.cfg.StepChecker)
	planner.SetFeedbackDeferred(e.cfg.DeferFeedback)
	if err := planner.SetDrift(e.cfg.Drift); err != nil {
		return err
	}
	e.planner = planner
	e.res = &core.Result{Algorithm: e.sched.Name()}
	return nil
}

// install restores the planner from a checkpoint: live requests append in
// arrival order under dense planner indices, and in-flight streams restore
// their exact ledger deltas. A request whose spec carries no outcomes (a
// checkpoint written before specs recorded the drawn default ones) draws
// them here. Each restored request gets its row, so status lookups keep
// answering for every live request across a restart.
func (e *Engine) install(ck *Checkpoint) error {
	if err := e.installEmpty(); err != nil {
		return err
	}
	e.slot = ck.Slot
	e.metrics.CurrentSlot.Store(int64(ck.Slot))

	reqs := append([]CheckpointRequest(nil), ck.Requests...)
	sort.Slice(reqs, func(a, b int) bool {
		if reqs[a].ArrivalSlot != reqs[b].ArrivalSlot {
			return reqs[a].ArrivalSlot < reqs[b].ArrivalSlot
		}
		return reqs[a].ExternalID < reqs[b].ExternalID
	})
	ext2int := make(map[uint64]int, len(reqs))
	for i := range reqs {
		cr := &reqs[i]
		if _, dup := ext2int[cr.ExternalID]; dup {
			return fmt.Errorf("request %d listed twice", cr.ExternalID)
		}
		r, err := materializeSpec(e.cfg.Net, e.cfg.Rng, i, cr.ArrivalSlot, &cr.Spec)
		if err != nil {
			return fmt.Errorf("request %d: %w", cr.ExternalID, err)
		}
		if err := e.planner.Append(r); err != nil {
			return err
		}
		d := core.Decision{RequestID: i, Station: -1}
		if cr.Running {
			d.Admitted, d.Served = true, true
		} else {
			e.pending = append(e.pending, i)
		}
		e.res.Decisions = append(e.res.Decisions, d)
		ext2int[cr.ExternalID] = i
	}

	running := make([]sim.RunningSnapshot, 0, len(ck.Running))
	for _, s := range ck.Running {
		internal, ok := ext2int[uint64(s.Request)]
		if !ok {
			return fmt.Errorf("running stream references unknown request %d", s.Request)
		}
		s.Request = internal
		running = append(running, s)
	}
	if err := e.planner.RestoreRunning(running); err != nil {
		return err
	}

	e.table.mu.Lock()
	for i, cr := range reqs {
		req := newRequest(cr.ExternalID, cr.ArrivalSlot, cr.Spec)
		e.table.insert(req)
		e.table.attach(req, i, cr.ArrivalSlot)
	}
	for _, s := range running {
		e.table.serving(s.Request, ck.Slot, s.ProcStation, 0, 0)
	}
	e.table.mu.Unlock()
	e.metrics.PendingDepth.Store(int64(len(e.pending)))
	e.metrics.ActiveStreams.Store(int64(e.planner.NumRunning()))
	return nil
}

// snapshotState captures the live set as a checkpoint (planner lock
// held): what Snapshot answers and a drained engine leaves behind.
// Everything mutable is deep-copied, so the cluster's checkpoint writer
// may encode the result while the engine keeps scheduling.
func (e *Engine) snapshotState() (*Checkpoint, error) {
	ck := &Checkpoint{
		Version:        checkpointVersion,
		Slot:           e.slot,
		NextExternalID: e.nextExt.Load(),
		Scheduler:      e.cfg.SchedulerName,
		Totals:         e.metrics.Totals(),
	}
	if d, ok := e.sched.(*sim.DynamicRR); ok && d.Bandit() != nil {
		snap, err := d.Bandit().Snapshot()
		if err == nil {
			ck.Bandit = snap
		} else if !errors.Is(err, bandit.ErrUnsupportedSnapshot) {
			return nil, err
		}
	}
	for _, req := range e.table.byIdx {
		if req != nil {
			ck.Requests = append(ck.Requests, CheckpointRequest{
				ExternalID:  req.rec.ID,
				ArrivalSlot: req.live.arrival,
				Running:     req.rec.State == StateServing,
				Spec:        req.live.spec,
			})
		}
	}
	sort.Slice(ck.Requests, func(a, b int) bool { return ck.Requests[a].ExternalID < ck.Requests[b].ExternalID })
	for _, s := range e.planner.SnapshotRunning() {
		req := e.table.byIdx[s.Request]
		if req == nil {
			// A stream whose row settled would leak; fail loudly instead
			// of checkpointing an unrecoverable state.
			return nil, fmt.Errorf("serve: running request %d missing from the request table", s.Request)
		}
		s.Request = int(req.rec.ID)
		ck.Running = append(ck.Running, s)
	}
	return ck, nil
}

// compact drops the settled backlog from the planner so a long-running
// daemon's memory stays bounded by its live request count rather than its
// lifetime request count. The live requests — the rows byIdx still holds,
// in planner order, which is arrival order — are renumbered densely in
// place: the planner keeps their requests as they are (nothing is
// re-materialized or re-drawn) and the rows learn their new indices.
func (e *Engine) compact() error {
	before := len(e.planner.Requests())
	var keep []int
	for idx, req := range e.table.byIdx {
		if req != nil {
			keep = append(keep, idx)
		}
	}
	pending, err := e.planner.Compact(keep, e.res, e.pending)
	if err != nil {
		return err
	}
	e.pending = pending
	e.table.compact()
	e.settled = 0
	e.cfg.Logf("arserved: compacted planner %d -> %d requests", before, len(keep))
	return nil
}
