package sim

import (
	"encoding/json"
	"fmt"
	"io"

	"mecoffload/internal/core"
)

// SlotSample is one slot of a recorded simulation run.
type SlotSample struct {
	// Slot is the time-slot index.
	Slot int `json:"slot"`
	// Pending is the queue depth when the scheduler ran.
	Pending int `json:"pending"`
	// Admitted is how many requests the scheduler admitted this slot.
	Admitted int `json:"admitted"`
	// Utilization is the realized fraction of total network capacity in
	// use after the slot settled.
	Utilization float64 `json:"utilization"`
}

// StationUsage aggregates one station's realized utilization over a
// recorded run.
type StationUsage struct {
	// Station is the base-station index.
	Station int `json:"station"`
	// MeanUtilization and PeakUtilization are fractions of capacity.
	MeanUtilization float64 `json:"meanUtilization"`
	PeakUtilization float64 `json:"peakUtilization"`
}

// Recorder collects a per-slot time series of a run from the engine's
// step hook: install its Record as the StepChecker (RunOptions.StepChecker).
// It samples each slot where the scheduler ran after the slot settles,
// and only reads the engine, so recording never perturbs the scheduling
// decisions. The zero value is ready to use.
type Recorder struct {
	samples []SlotSample
	// Per-station running aggregates.
	utilSum  []float64
	utilPeak []float64
	slots    int
}

// Record is a StepChecker that records slot rep.Slot when the scheduler ran
// there (info.Pending is not empty); it never fails.
func (r *Recorder) Record(eng *Engine, _ *core.Result, rep SlotReport, info StepInfo) error {
	if len(info.Pending) == 0 {
		return nil
	}
	net := eng.Net()
	if r.utilSum == nil {
		r.utilSum = make([]float64, net.NumStations())
		r.utilPeak = make([]float64, net.NumStations())
	}
	used := 0.0
	for i, u := range eng.Used() {
		used += u
		frac := u / net.Capacity(i)
		r.utilSum[i] += frac
		if frac > r.utilPeak[i] {
			r.utilPeak[i] = frac
		}
	}
	r.slots++
	r.samples = append(r.samples, SlotSample{
		Slot:        rep.Slot,
		Pending:     len(info.Pending),
		Admitted:    len(rep.Admitted),
		Utilization: used / net.TotalCapacity(),
	})
	return nil
}

// StationReport returns per-station mean and peak utilization over the
// recorded slots (nil before any slot ran).
func (r *Recorder) StationReport() []StationUsage {
	if r.slots == 0 {
		return nil
	}
	out := make([]StationUsage, len(r.utilSum))
	for i := range out {
		out[i] = StationUsage{
			Station:         i,
			MeanUtilization: r.utilSum[i] / float64(r.slots),
			PeakUtilization: r.utilPeak[i],
		}
	}
	return out
}

// Samples returns the recorded time series.
func (r *Recorder) Samples() []SlotSample {
	out := make([]SlotSample, len(r.samples))
	copy(out, r.samples)
	return out
}

// RunTrace is the JSON-exportable record of one simulation run: the
// aggregate outcome, the per-slot series, and every per-request decision.
type RunTrace struct {
	Algorithm   string         `json:"algorithm"`
	TotalReward float64        `json:"totalReward"`
	Served      int            `json:"served"`
	Admitted    int            `json:"admitted"`
	AvgLatency  float64        `json:"avgLatencyMS"`
	Slots       []SlotSample   `json:"slots,omitempty"`
	Stations    []StationUsage `json:"stations,omitempty"`
	Decisions   []TraceEntry   `json:"decisions"`
}

// TraceEntry is the export form of one request's decision.
type TraceEntry struct {
	Request   int     `json:"request"`
	Admitted  bool    `json:"admitted"`
	Evicted   bool    `json:"evicted,omitempty"`
	Served    bool    `json:"served"`
	Station   int     `json:"station"`
	Wait      int     `json:"waitSlots"`
	LatencyMS float64 `json:"latencyMS"`
	Reward    float64 `json:"reward"`
	Tasks     []int   `json:"taskStations,omitempty"`
}

// NewRunTrace assembles a trace from a result and the recorder of its run.
func NewRunTrace(res *core.Result, rec *Recorder) *RunTrace {
	tr := &RunTrace{
		Algorithm:   res.Algorithm,
		TotalReward: res.TotalReward,
		Served:      res.Served,
		Admitted:    res.Admitted,
		AvgLatency:  res.AvgLatencyMS(),
		Slots:       rec.Samples(),
		Stations:    rec.StationReport(),
	}
	tr.Decisions = make([]TraceEntry, len(res.Decisions))
	for i, d := range res.Decisions {
		tr.Decisions[i] = TraceEntry{
			Request:   d.RequestID,
			Admitted:  d.Admitted,
			Evicted:   d.Evicted,
			Served:    d.Served,
			Station:   d.Station,
			Wait:      d.WaitSlots,
			LatencyMS: d.LatencyMS,
			Reward:    d.Reward,
			Tasks:     d.TaskStations,
		}
	}
	return tr
}

// WriteJSON marshals the trace with indentation.
func (tr *RunTrace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(tr); err != nil {
		return fmt.Errorf("sim: encoding trace: %w", err)
	}
	return nil
}

// ReadRunTrace decodes a trace previously written by WriteJSON.
func ReadRunTrace(r io.Reader) (*RunTrace, error) {
	var tr RunTrace
	if err := json.NewDecoder(r).Decode(&tr); err != nil {
		return nil, fmt.Errorf("sim: decoding trace: %w", err)
	}
	return &tr, nil
}

// WriteTraceLine writes one slot's trace line — the format of arsim
// -trace and of the serving daemon's trace writer: the slot, the pending
// queue's depth, the admitted count, the realized utilization of the
// stations' capacity, and the threshold d's arm policy currently favors
// when d is non-nil and its policy names a best arm.
func WriteTraceLine(w io.Writer, t, pending, admitted int, used []float64, capacity float64, d *DynamicRR) {
	sum := 0.0
	for _, u := range used {
		sum += u
	}
	line := fmt.Sprintf("slot %4d  pending %3d  admitted %3d  utilization %5.1f%%",
		t, pending, admitted, 100*sum/capacity)
	if d != nil && d.Bandit() != nil {
		if best, ok := d.Bandit().Policy().(interface{ BestArm() int }); ok {
			line += fmt.Sprintf("  threshold %4.0f MHz", d.Bandit().Value(best.BestArm()))
		}
	}
	fmt.Fprintln(w, line)
}
