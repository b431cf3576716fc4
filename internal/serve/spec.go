package serve

// Spec materialization: the wire shape of a request, the one rule that
// accepts or rejects it (checkSpec), and the two halves of turning an
// accepted one into the planner's mec.Request: specKey at the door, which
// files what the planner reads of a pending request, and buildSpec when
// R_t first selects it.

import (
	"fmt"
	"math"
	"math/rand"

	"mecoffload/internal/dist"
	"mecoffload/internal/mec"
	"mecoffload/internal/sim"
	"mecoffload/internal/workload"
)

// TaskSpec is one pipeline stage of a submitted request.
type TaskSpec struct {
	Name     string  `json:"name"`
	OutputKb float64 `json:"outputKb"`
	WorkMS   float64 `json:"workMS"`
}

// OutcomeSpec is one (rate, reward) outcome of a submitted request's
// demand distribution.
type OutcomeSpec struct {
	RateMBs float64 `json:"rateMBs"`
	Prob    float64 `json:"prob"`
	Reward  float64 `json:"reward"`
}

// RequestSpec is the JSON body of POST /v1/requests. Zero-valued fields
// take the paper's workload defaults: a 200 ms deadline, a 20-slot hold,
// the canonical four-stage AR pipeline, and a five-point demand
// distribution over 30-50 MB/s.
type RequestSpec struct {
	AccessStation int           `json:"accessStation"`
	DeadlineMS    float64       `json:"deadlineMS,omitempty"`
	DurationSlots int           `json:"durationSlots,omitempty"`
	Tasks         []TaskSpec    `json:"tasks,omitempty"`
	Outcomes      []OutcomeSpec `json:"outcomes,omitempty"`
}

// zeroSource is a math/rand source with no state: every draw is 0.
type zeroSource struct{}

func (zeroSource) Int63() int64 { return 0 }
func (zeroSource) Seed(int64)   {}

// validationRng stands in for the engine's stream when a spec is only
// being checked and the default-outcome unit-reward draw is thrown away.
// Float64 on a stateless source touches no shared state, so concurrent
// validators share it.
var validationRng = rand.New(zeroSource{})

// MaterializeSpec builds the planner request a spec would become against
// an arbitrary topology, without consuming any engine randomness. Safe for
// concurrent use.
func MaterializeSpec(net *mec.Network, spec RequestSpec) (*mec.Request, error) {
	return materializeSpec(net, validationRng, &spec)
}

// ValidateSpec checks a spec against a topology exactly as intake would:
// it fails when, and only when, MaterializeSpec does, with the same error,
// and allocates nothing unless it fails. Safe for concurrent use.
func ValidateSpec(net *mec.Network, spec RequestSpec) error {
	_, err := checkSpec(net, spec)
	return err
}

// specFacts is what checkSpec works out on its way through a valid spec.
type specFacts struct {
	deadlineMS float64 // the spec's, or the default
	workMS     float64 // total pipeline work, of the spec's tasks or the canonical ones
	// minPosRate is the smallest rate that carries positive reward mass,
	// +Inf when no outcome does.
	minPosRate float64
}

// canonicalWorkMS is the total pipeline work of a default-task spec.
var canonicalWorkMS = func() float64 {
	total := 0.0
	for _, st := range workload.CanonicalPipeline() {
		total += st.BaseWorkMS
	}
	return total
}()

// checkSpec is the one accept/reject rule for a spec: specKey files only
// what it accepted, and SpecCandidates routes only that. It applies the
// paper defaults the way specKey and buildSpec do and allocates nothing on
// the accepting path.
func checkSpec(net *mec.Network, spec RequestSpec) (specFacts, error) {
	if spec.AccessStation < 0 || spec.AccessStation >= net.NumStations() {
		return specFacts{}, fmt.Errorf("%w: access station %d out of [0, %d)", ErrBadSpec, spec.AccessStation, net.NumStations())
	}
	f := specFacts{deadlineMS: spec.DeadlineMS, workMS: canonicalWorkMS, minPosRate: workload.DefaultMinRate}
	if f.deadlineMS == 0 {
		f.deadlineMS = 200
	}
	if !nonNegFinite(f.deadlineMS) {
		return specFacts{}, fmt.Errorf("%w: deadline %v", ErrBadSpec, f.deadlineMS)
	}
	if spec.DurationSlots < 0 {
		return specFacts{}, fmt.Errorf("%w: duration %d slots", ErrBadSpec, spec.DurationSlots)
	}
	if len(spec.Tasks) > 0 {
		f.workMS = 0
		for _, ts := range spec.Tasks {
			if !nonNegFinite(ts.OutputKb) || !nonNegFinite(ts.WorkMS) {
				return specFacts{}, fmt.Errorf("%w: task %+v", ErrBadSpec, ts)
			}
			f.workMS += ts.WorkMS
		}
	}
	// Default outcomes have uniform positive probabilities and positive
	// rewards at every support rate, so they are valid and their smallest
	// positive-mass rate is the support minimum.
	if len(spec.Outcomes) > 0 {
		f.minPosRate = math.Inf(1)
		var mass dist.Mass
		for _, o := range spec.Outcomes {
			if err := mass.Add(dist.Outcome{Rate: o.RateMBs, Prob: o.Prob, Reward: o.Reward}); err != nil {
				return specFacts{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
			}
			if o.Prob*o.Reward > 0 && o.RateMBs < f.minPosRate {
				f.minPosRate = o.RateMBs
			}
		}
		if err := mass.Check(); err != nil {
			return specFacts{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
	}
	return f, nil
}

// nonNegFinite reports whether x is a number in [0, +Inf). JSON cannot
// carry a NaN or an infinity, but a Go caller of Submit can, and a
// checkpoint holding one would no longer encode.
func nonNegFinite(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// materializeSpec applies the paper-default pipeline, deadline, hold, and
// demand distribution to a spec checkSpec accepts, building the whole
// request at once, as request 0 arriving at slot 0: specKey, then
// buildSpec. rng feeds only the default-outcome unit-reward draw (see
// specKey).
func materializeSpec(net *mec.Network, rng *rand.Rand, spec *RequestSpec) (*mec.Request, error) {
	k, err := specKey(net, rng, 0, spec)
	if err != nil {
		return nil, err
	}
	r := buildSpec(new(mec.Request), nil, k, spec)
	r.AccessStation = k.AccessStation
	return r, nil
}

// specKey is the door's half: it checks a spec (checkSpec) and returns
// the planner's key of the request it becomes, arriving at arrival,
// building no request and no distribution. rng feeds only the
// default-outcome unit-reward draw, and the drawn outcomes are written
// into spec: the caller's copy then names the distribution the request
// will hold, so buildSpec and a checkpoint read it instead of a second
// draw. The expected rate is summed over the outcomes sorted and merged as
// dist.NewRateReward sorts and merges them, so it is the built
// distribution's bit for bit.
func specKey(net *mec.Network, rng *rand.Rand, arrival int, spec *RequestSpec) (sim.Key, error) {
	facts, err := checkSpec(net, *spec)
	if err != nil {
		return sim.Key{}, err
	}
	if len(spec.Outcomes) == 0 {
		spec.Outcomes = defaultOutcomes(rng)
	}
	tasks := defaultTasks
	if len(spec.Tasks) > 0 {
		tasks = make([]mec.Task, len(spec.Tasks))
		for i, ts := range spec.Tasks {
			tasks[i] = mec.Task{Name: ts.Name, OutputKb: ts.OutputKb, WorkMS: ts.WorkMS}
		}
	}
	var buf [workload.DefaultRateSupport]dist.Outcome
	return sim.Key{
		ArrivalSlot:   arrival,
		AccessStation: spec.AccessStation,
		DeadlineMS:    facts.deadlineMS,
		ExpectedRate:  dist.ExpectedRateOf(dist.Normalize(distOutcomes(buf[:0], spec))),
		Tasks:         tasks,
	}, nil
}

// buildSpec is the planner's half: it fills r with the request a spec
// specKey accepted becomes under its key k — the key's pipeline and
// deadline, the spec's hold (default 20 slots) and distribution, carved
// from arena (allocated on its own when arena is nil). The caller sets
// the request's ID, arrival and access station. It cannot fail: checkSpec
// applies dist.NewRateReward's own rule (dist.Mass) to the outcomes.
func buildSpec(r *mec.Request, arena *dist.Arena, k sim.Key, spec *RequestSpec) *mec.Request {
	dur := spec.DurationSlots
	if dur == 0 {
		dur = 20
	}
	// The distribution copies the list it reads, so a default-sized one
	// can live on the stack.
	var buf [workload.DefaultRateSupport]dist.Outcome
	outs := distOutcomes(buf[:0], spec)
	var d *dist.RateReward
	var err error
	if arena != nil {
		d, err = arena.New(outs)
	} else {
		d, err = dist.NewRateReward(outs)
	}
	if err != nil {
		panic(fmt.Sprintf("serve: a spec checkSpec accepted has outcomes the distribution refuses: %v", err))
	}
	*r = mec.Request{Tasks: k.Tasks, DeadlineMS: k.DeadlineMS, DurationSlots: dur, Dist: d}
	return r
}

// distOutcomes appends a spec's outcomes to dst as the distribution's.
func distOutcomes(dst []dist.Outcome, spec *RequestSpec) []dist.Outcome {
	for _, o := range spec.Outcomes {
		dst = append(dst, dist.Outcome{Rate: o.RateMBs, Prob: o.Prob, Reward: o.Reward})
	}
	return dst
}

// defaultTasks is the canonical pipeline every request submitted without
// tasks carries. All of them share this one slice: a request's tasks are
// immutable (see mec.Request.CloneShallow), and its length equals its
// capacity, so an append to it copies.
var defaultTasks = func() []mec.Task {
	pipeline := workload.CanonicalPipeline()
	tasks := make([]mec.Task, len(pipeline))
	for i, st := range pipeline {
		tasks[i] = mec.Task{Name: st.Name, OutputKb: st.OutputKb, WorkMS: st.BaseWorkMS}
	}
	return tasks
}()

// defaultOutcomes draws the paper-default five-point demand distribution:
// rates evenly spaced over [30, 50] MB/s, uniform probabilities, and a
// unit reward uniform in [12, 15] dollars per MB/s.
func defaultOutcomes(rng *rand.Rand) []OutcomeSpec {
	const support = workload.DefaultRateSupport
	unit := workload.DefaultMinUnitReward +
		rng.Float64()*(workload.DefaultMaxUnitReward-workload.DefaultMinUnitReward)
	out := make([]OutcomeSpec, support)
	for i := 0; i < support; i++ {
		rate := workload.DefaultMinRate +
			float64(i)*(workload.DefaultMaxRate-workload.DefaultMinRate)/float64(support-1)
		out[i] = OutcomeSpec{RateMBs: rate, Prob: 1.0 / support, Reward: unit * rate}
	}
	return out
}
