package serve

// Spec materialization: the wire shape of a request, the one rule that
// accepts or rejects it (checkSpec), and the one function, materializeSpec,
// that turns an accepted one into the planner's mec.Request.

import (
	"fmt"
	"math"
	"math/rand"

	"mecoffload/internal/dist"
	"mecoffload/internal/mec"
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
	return materializeSpec(net, validationRng, 0, 0, &spec)
}

// ValidateSpec checks a spec against a topology exactly as intake would:
// it fails when, and only when, MaterializeSpec does, with the same error,
// and allocates nothing unless it fails. Safe for concurrent use.
func ValidateSpec(net *mec.Network, spec RequestSpec) error {
	_, err := checkSpec(net, spec)
	return err
}

// ValidateSpec checks a spec against the engine's topology. Batch handlers
// validate lines up front so per-line errors surface in the HTTP response
// rather than as asynchronous sheds. Safe for concurrent use.
func (e *Engine) ValidateSpec(spec RequestSpec) error {
	return ValidateSpec(e.cfg.Net, spec)
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

// checkSpec is the one accept/reject rule for a spec: materializeSpec
// builds only what it accepted, and SpecCandidates routes only that. It
// applies the paper defaults the way materializeSpec does and allocates
// nothing on the accepting path.
func checkSpec(net *mec.Network, spec RequestSpec) (specFacts, error) {
	if spec.AccessStation < 0 || spec.AccessStation >= net.NumStations() {
		return specFacts{}, fmt.Errorf("%w: access station %d out of [0, %d)", ErrBadSpec, spec.AccessStation, net.NumStations())
	}
	f := specFacts{deadlineMS: spec.DeadlineMS, workMS: canonicalWorkMS, minPosRate: workload.DefaultMinRate}
	if f.deadlineMS == 0 {
		f.deadlineMS = 200
	}
	if f.deadlineMS < 0 {
		return specFacts{}, fmt.Errorf("%w: deadline %v", ErrBadSpec, f.deadlineMS)
	}
	if spec.DurationSlots < 0 {
		return specFacts{}, fmt.Errorf("%w: duration %d slots", ErrBadSpec, spec.DurationSlots)
	}
	if len(spec.Tasks) > 0 {
		f.workMS = 0
		for _, ts := range spec.Tasks {
			if ts.OutputKb < 0 || ts.WorkMS < 0 {
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

// materializeSpec applies the paper-default pipeline, deadline, hold, and
// demand distribution to a spec checkSpec accepts. rng feeds only the
// default-outcome unit-reward draw, and the drawn outcomes are written into
// spec: the caller's copy then names the distribution the request holds,
// so a checkpoint or a migration hands that on instead of a second draw.
func materializeSpec(net *mec.Network, rng *rand.Rand, id, arrival int, spec *RequestSpec) (*mec.Request, error) {
	facts, err := checkSpec(net, *spec)
	if err != nil {
		return nil, err
	}
	if len(spec.Outcomes) == 0 {
		spec.Outcomes = defaultOutcomes(rng)
	}
	dur := spec.DurationSlots
	if dur == 0 {
		dur = 20
	}
	tasks := make([]mec.Task, 0, 4)
	if len(spec.Tasks) == 0 {
		for _, st := range workload.CanonicalPipeline() {
			tasks = append(tasks, mec.Task{Name: st.Name, OutputKb: st.OutputKb, WorkMS: st.BaseWorkMS})
		}
	} else {
		for _, ts := range spec.Tasks {
			tasks = append(tasks, mec.Task{Name: ts.Name, OutputKb: ts.OutputKb, WorkMS: ts.WorkMS})
		}
	}
	distOutcomes := make([]dist.Outcome, 0, len(spec.Outcomes))
	for _, o := range spec.Outcomes {
		distOutcomes = append(distOutcomes, dist.Outcome{Rate: o.RateMBs, Prob: o.Prob, Reward: o.Reward})
	}
	d, err := dist.NewRateReward(distOutcomes)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	r := &mec.Request{
		ID:            id,
		ArrivalSlot:   arrival,
		AccessStation: spec.AccessStation,
		Tasks:         tasks,
		DeadlineMS:    facts.deadlineMS,
		DurationSlots: dur,
		Dist:          d,
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	return r, nil
}

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
