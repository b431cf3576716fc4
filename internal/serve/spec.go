package serve

// Spec materialization: the wire shape of a request and the one function,
// materializeSpec, that turns it into the planner's mec.Request.

import (
	"fmt"
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
// an arbitrary topology, without consuming any engine randomness. The
// cluster router uses it to compute a request's candidate stations over
// the full topology before the owning shard re-materializes the spec
// against its own sub-network. Safe for concurrent use.
func MaterializeSpec(net *mec.Network, spec RequestSpec) (*mec.Request, error) {
	return materializeSpec(net, validationRng, 0, 0, spec)
}

// ValidateSpec checks a spec exactly as intake would, without admitting
// it and without consuming engine randomness. Batch handlers validate
// lines up front so per-line errors surface in the HTTP response rather
// than as asynchronous sheds. Safe for concurrent use.
func (e *Engine) ValidateSpec(spec RequestSpec) error {
	_, err := MaterializeSpec(e.cfg.Net, spec)
	return err
}

// materializeSpec applies the paper-default pipeline, deadline, hold, and
// demand distribution to a spec and validates the result. rng feeds only
// the default-outcome unit-reward draw.
func materializeSpec(net *mec.Network, rng *rand.Rand, id, arrival int, spec RequestSpec) (*mec.Request, error) {
	if spec.AccessStation < 0 || spec.AccessStation >= net.NumStations() {
		return nil, fmt.Errorf("%w: access station %d out of [0, %d)", ErrBadSpec, spec.AccessStation, net.NumStations())
	}
	deadline := spec.DeadlineMS
	if deadline == 0 {
		deadline = 200
	}
	if deadline < 0 {
		return nil, fmt.Errorf("%w: deadline %v", ErrBadSpec, deadline)
	}
	dur := spec.DurationSlots
	if dur == 0 {
		dur = 20
	}
	if dur < 0 {
		return nil, fmt.Errorf("%w: duration %d slots", ErrBadSpec, dur)
	}
	tasks := make([]mec.Task, 0, 4)
	if len(spec.Tasks) == 0 {
		for _, st := range workload.CanonicalPipeline() {
			tasks = append(tasks, mec.Task{Name: st.Name, OutputKb: st.OutputKb, WorkMS: st.BaseWorkMS})
		}
	} else {
		for _, ts := range spec.Tasks {
			if ts.OutputKb < 0 || ts.WorkMS < 0 {
				return nil, fmt.Errorf("%w: task %+v", ErrBadSpec, ts)
			}
			tasks = append(tasks, mec.Task{Name: ts.Name, OutputKb: ts.OutputKb, WorkMS: ts.WorkMS})
		}
	}
	outcomes := spec.Outcomes
	if len(outcomes) == 0 {
		outcomes = defaultOutcomes(rng)
	}
	distOutcomes := make([]dist.Outcome, 0, len(outcomes))
	for _, o := range outcomes {
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
		DeadlineMS:    deadline,
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
