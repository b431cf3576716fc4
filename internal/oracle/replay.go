package oracle

import (
	"fmt"
	"reflect"

	"mecoffload/internal/core"
	"mecoffload/internal/dist"
	"mecoffload/internal/mec"
	"mecoffload/internal/rnd"
	"mecoffload/internal/sim"
	"mecoffload/internal/workload"
)

// SlotAdmissions records one slot's admission decisions in a replay.
type SlotAdmissions struct {
	Slot     int     `json:"slot"`
	Admitted []int   `json:"admitted"`
	Reward   float64 `json:"reward"`
}

// ReplayDump is the decision trace of a frame-trace replay: every slot
// that admitted at least one request, in order, plus run totals. Request
// ids are submission ordinals (0 for the first submitted request), which
// both the golden replay and the daemons use as internal ids, so dumps
// from different harnesses are directly comparable.
type ReplayDump struct {
	Submitted   int              `json:"submitted"`
	Slots       []SlotAdmissions `json:"slots"`
	TotalReward float64          `json:"totalReward"`
}

// Equal reports whether two dumps describe bit-for-bit identical runs.
func (d *ReplayDump) Equal(o *ReplayDump) bool {
	return d.Submitted == o.Submitted && d.TotalReward == o.TotalReward &&
		reflect.DeepEqual(d.Slots, o.Slots)
}

// Diff returns a description of the first divergence between two dumps,
// or "" when they are equal.
func (d *ReplayDump) Diff(o *ReplayDump) string {
	if d.Submitted != o.Submitted {
		return fmt.Sprintf("submitted %d vs %d", d.Submitted, o.Submitted)
	}
	for i := 0; i < len(d.Slots) && i < len(o.Slots); i++ {
		a, b := d.Slots[i], o.Slots[i]
		if a.Slot != b.Slot || !reflect.DeepEqual(a.Admitted, b.Admitted) || a.Reward != b.Reward {
			return fmt.Sprintf("slot entry %d: {slot %d admitted %v reward %v} vs {slot %d admitted %v reward %v}",
				i, a.Slot, a.Admitted, a.Reward, b.Slot, b.Admitted, b.Reward)
		}
	}
	if len(d.Slots) != len(o.Slots) {
		return fmt.Sprintf("%d admitting slots vs %d", len(d.Slots), len(o.Slots))
	}
	if d.TotalReward != o.TotalReward {
		return fmt.Sprintf("total reward %v vs %v", d.TotalReward, o.TotalReward)
	}
	return ""
}

// maxReplaySlots caps the drain tail of a golden replay; a correct run
// expires or finishes every request within a few slots of the last
// arrival, so hitting the cap means the model leaked work.
const maxReplaySlots = 1 << 20

// FrameReplay is the trusted reference for the daemon's frame-trace
// replay mode: it derives the same request stream from the trace
// (rnd.New(seed, "replay") for unit rewards, round-robin access
// stations, single-outcome demand pinned to the second's scaled pipeline
// rate, paper-default deadline/hold/pipeline) and drives a bare
// sim.Engine with the reference DynamicRR (no decision reuse, see
// ReferenceDynamicRR) under rnd.New(seed, "cluster-shard-0") — the
// stream arserved's shard 0 draws from — mirroring arserved's runReplay
// slot for slot — including the drain tail — but through none of the
// daemon's router, channel, shard, or checkpoint machinery.
// cmd/arserved -replay (a 1-shard cluster) must reproduce its dump,
// per-slot admissions compared as sets (Normalized): the planner reports
// admission order, the cluster ascending ids. The engine runs with the
// oracle's invariant checker installed.
func FrameReplay(net *mec.Network, tr *workload.FrameTrace, seed int64, slotMS float64, perThirtyFPS int) (*ReplayDump, error) {
	if net == nil || tr == nil {
		return nil, fmt.Errorf("oracle: nil network or trace")
	}
	if slotMS == 0 {
		slotMS = mec.DefaultSlotLengthMS
	}
	planner, err := sim.NewLiveEngine(net, rnd.New(seed, "cluster-shard-0"), slotMS)
	if err != nil {
		return nil, err
	}
	planner.SetStepChecker(EngineChecker())
	sched, err := ReferenceDynamicRR(sim.DynamicRROptions{})
	if err != nil {
		return nil, err
	}
	res := &core.Result{Algorithm: sched.Name()}

	rates := tr.ScaleToRate(workload.DefaultMinRate, workload.DefaultMaxRate)
	slotsPerSecond := int(1000/slotMS + 0.5)
	if slotsPerSecond < 1 {
		slotsPerSecond = 1
	}
	replayRng := rnd.New(seed, "replay")
	dump := &ReplayDump{}
	var pending []int
	slot := 0

	step := func() error {
		var rep sim.SlotReport
		pending, rep, err = planner.Step(sched, res, slot, pending)
		if err != nil {
			return fmt.Errorf("oracle: replay slot %d: %w", slot, err)
		}
		if len(rep.Admitted) > 0 {
			dump.Slots = append(dump.Slots, SlotAdmissions{
				Slot:     slot,
				Admitted: append([]int(nil), rep.Admitted...),
				Reward:   rep.Reward,
			})
		}
		dump.TotalReward += rep.Reward
		slot++
		return nil
	}

	for s, fps := range tr.FPS {
		n := perThirtyFPS * fps / 30
		if n < 1 {
			n = 1
		}
		for k := 0; k < n; k++ {
			unit := workload.DefaultMinUnitReward +
				replayRng.Float64()*(workload.DefaultMaxUnitReward-workload.DefaultMinUnitReward)
			d, err := dist.NewRateReward([]dist.Outcome{{Rate: rates[s], Prob: 1, Reward: unit * rates[s]}})
			if err != nil {
				return nil, fmt.Errorf("oracle: replay second %d: %w", s, err)
			}
			var tasks []mec.Task
			for _, st := range workload.CanonicalPipeline() {
				tasks = append(tasks, mec.Task{Name: st.Name, OutputKb: st.OutputKb, WorkMS: st.BaseWorkMS})
			}
			id := len(planner.Requests())
			r := &mec.Request{
				ID:            id,
				ArrivalSlot:   slot,
				AccessStation: dump.Submitted % net.NumStations(),
				Tasks:         tasks,
				DeadlineMS:    200,
				DurationSlots: 20,
				Dist:          d,
			}
			if err := planner.Append(r); err != nil {
				return nil, fmt.Errorf("oracle: replay second %d: %w", s, err)
			}
			res.Decisions = append(res.Decisions, core.Decision{RequestID: id, Station: -1})
			pending = append(pending, id)
			dump.Submitted++
		}
		for k := 0; k < slotsPerSecond; k++ {
			if err := step(); err != nil {
				return nil, err
			}
		}
	}
	// Drain: keep stepping until every pending request is decided or
	// expired and every admitted stream has departed, exactly like the
	// daemons' post-trace drain loop.
	for len(pending) > 0 || planner.NumRunning() > 0 {
		if slot > maxReplaySlots {
			return nil, fmt.Errorf("oracle: replay drain did not terminate within %d slots", maxReplaySlots)
		}
		if err := step(); err != nil {
			return nil, err
		}
	}
	return dump, nil
}

// RecordReplay is the determinism checker: it runs the same workload
// over horizon slots through a freshly built engine and scheduler twice —
// cloned requests, identical seeds — and requires the two runs' decision
// tables, rewards, and per-slot reward vectors to match bit for bit. Any
// hidden nondeterminism in the solver or scheduler (map iteration leaking
// into decisions, uncontrolled randomness) surfaces as a diff.
func RecordReplay(n *mec.Network, reqs []*mec.Request, seed int64, horizon int, mk func() (sim.Scheduler, error)) error {
	run := func() (*core.Result, []float64, error) {
		sched, err := mk()
		if err != nil {
			return nil, nil, err
		}
		return sim.Simulate(n, workload.Clone(reqs), sched, rnd.New(seed, "engine"),
			sim.RunOptions{Horizon: horizon, StepChecker: EngineChecker()})
	}
	resA, rewA, err := run()
	if err != nil {
		return err
	}
	resB, rewB, err := run()
	if err != nil {
		return err
	}
	if resA.TotalReward != resB.TotalReward {
		return fmt.Errorf("oracle: record-replay total reward %v vs %v", resA.TotalReward, resB.TotalReward)
	}
	if !reflect.DeepEqual(rewA, rewB) {
		return fmt.Errorf("oracle: record-replay slot rewards diverge")
	}
	for j := range resA.Decisions {
		if !reflect.DeepEqual(resA.Decisions[j], resB.Decisions[j]) {
			return fmt.Errorf("oracle: record-replay decision %d diverges: %+v vs %+v",
				j, resA.Decisions[j], resB.Decisions[j])
		}
	}
	return nil
}
