package serve

import (
	"math"
	"sync/atomic"
)

// slotDurationBucketsMS are the upper bounds (milliseconds) of the slot
// scheduling-latency histogram. The paper's slot is 50 ms; a healthy tick
// schedules in a fraction of that, so the buckets resolve the sub-slot
// range finely and the overload range coarsely.
var slotDurationBucketsMS = []float64{0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 1000}

// intakeLatencyBucketsMS resolve the batched-ingest handoff (door
// enqueue to planner append), which includes the wait for the next Flush,
// slot or single-request submit. The coarse tail captures overload, where
// entries wait in the ring behind the MaxPending backpressure bound.
var intakeLatencyBucketsMS = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 500}

// counter is a monotonically increasing uint64 safe for concurrent use.
type counter struct{ v atomic.Uint64 }

func (c *counter) Add(n uint64) { c.v.Add(n) }
func (c *counter) Inc()         { c.v.Add(1) }
func (c *counter) Load() uint64 { return c.v.Load() }

// floatCounter accumulates a float64 total (realized reward) with a
// compare-and-swap loop over the bit pattern.
type floatCounter struct{ bits atomic.Uint64 }

func (f *floatCounter) Add(x float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + x)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *floatCounter) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// histogram is a fixed-bucket Prometheus-style histogram. Observe is
// called only under the planner lock; Load-side readers may race benignly
// between bucket and sum reads (standard for lock-free exposition).
type histogram struct {
	bounds []float64
	counts []atomic.Uint64
	sum    floatCounter
	total  counter
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds))}
}

func (h *histogram) Observe(x float64) {
	for i, b := range h.bounds {
		if x <= b {
			h.counts[i].Add(1)
		}
	}
	h.sum.Add(x)
	h.total.Inc()
}

// HistogramSnapshot is a point-in-time copy of one histogram, letting
// external expositions (the cluster's per-shard /metrics) render the
// engine's histograms under their own label sets.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
	Count  uint64
}

func (h *histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.sum.Load(),
		Count:  h.total.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// SlotDurationSnapshot copies the slot-duration histogram.
func (m *Metrics) SlotDurationSnapshot() HistogramSnapshot { return m.SlotDuration.snapshot() }

// IntakeLatencySnapshot copies the intake-latency histogram.
func (m *Metrics) IntakeLatencySnapshot() HistogramSnapshot { return m.IntakeLatency.snapshot() }

// Metrics is one engine's metric surface; the cluster's WriteProm is its
// only exposition. All fields are safe for concurrent read while the
// engine writes.
type Metrics struct {
	Submitted    counter // requests accepted into the intake queue
	Rejected     counter // requests refused at intake (draining)
	Admitted     counter // scheduler admissions (includes later evictions)
	Served       counter // admissions that survived settlement
	Evicted      counter // admissions evicted at realization or by overload
	Expired      counter // pending requests whose deadline became unreachable
	Departed     counter // streams that completed their hold and released
	Ticks        counter // scheduling slots executed
	SlotErrors   counter // slots whose scheduler returned an error
	Reward       floatCounter
	SlotDuration *histogram

	// Batched ingest path.
	Batches       counter    // SubmitBatch calls accepted at the door
	BatchRequests counter    // requests carried by those batches
	Shed          counter    // requests dropped by reward-aware shedding
	Saturated     counter    // batches refused with ErrSaturated (503)
	IntakeLatency *histogram // door enqueue -> planner append, ms

	// Gauges, written under the planner lock.
	PendingDepth  atomic.Int64
	ActiveStreams atomic.Int64
	CurrentSlot   atomic.Int64
	// IntakeDepth is the ingest ring's depth; the staged-entry gauge
	// lives on the engine (stagedDepth) because the door owns it.
	IntakeDepth atomic.Int64

	drainFlag atomic.Bool
}

// Totals captures the cumulative counters: checkpoints persist them so a
// restarted daemon's /metrics stays cumulative across the restart, and
// the cluster sums them across shards for its run summaries.
func (m *Metrics) Totals() Totals {
	return Totals{
		Submitted: m.Submitted.Load(),
		Rejected:  m.Rejected.Load(),
		Admitted:  m.Admitted.Load(),
		Served:    m.Served.Load(),
		Evicted:   m.Evicted.Load(),
		Expired:   m.Expired.Load(),
		Departed:  m.Departed.Load(),
		Ticks:     m.Ticks.Load(),
		Reward:    m.Reward.Load(),
		Batches:   m.Batches.Load(),
		BatchReqs: m.BatchRequests.Load(),
		Shed:      m.Shed.Load(),
		Saturated: m.Saturated.Load(),
	}
}

// restoreTotals seeds the cumulative counters from a checkpoint. Only
// valid on a fresh Metrics (counters are monotonic).
func (m *Metrics) restoreTotals(t Totals) {
	m.Submitted.v.Store(t.Submitted)
	m.Rejected.v.Store(t.Rejected)
	m.Admitted.v.Store(t.Admitted)
	m.Served.v.Store(t.Served)
	m.Evicted.v.Store(t.Evicted)
	m.Expired.v.Store(t.Expired)
	m.Departed.v.Store(t.Departed)
	m.Ticks.v.Store(t.Ticks)
	m.Reward.bits.Store(math.Float64bits(t.Reward))
	m.Batches.v.Store(t.Batches)
	m.BatchRequests.v.Store(t.BatchReqs)
	m.Shed.v.Store(t.Shed)
	m.Saturated.v.Store(t.Saturated)
}

// NewMetrics builds an empty metric set.
func NewMetrics() *Metrics {
	return &Metrics{
		SlotDuration:  newHistogram(slotDurationBucketsMS),
		IntakeLatency: newHistogram(intakeLatencyBucketsMS),
	}
}

// StationGauge is one station's exposed capacity state, as the request
// table last recorded it.
type StationGauge struct {
	Station     int
	UsedMHz     float64
	CapacityMHz float64
}
