package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"mecoffload/internal/bandit"
	"mecoffload/internal/ckpt"
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
