// Package workload generates synthetic AR request workloads matching the
// paper's evaluation settings (Section VI-A) and a frame-level trace
// generator that reproduces the statistics of the real AR dataset the
// paper adopts from Braud et al. [5] (64Kb JPEG frames at 90-120 fps,
// four-stage pipelines, data rates of 30-50 MB/s).
package workload

import (
	"errors"
	"fmt"
	"math/rand"

	"mecoffload/internal/dist"
	"mecoffload/internal/mec"
)

// Paper-default workload parameters (Section VI-A).
const (
	DefaultMinRate       = 30.0 // MB/s
	DefaultMaxRate       = 50.0 // MB/s
	DefaultMinUnitReward = 12.0 // dollars per MB/s
	DefaultMaxUnitReward = 15.0 // dollars per MB/s
	DefaultMinTasks      = 4
	DefaultMaxTasks      = 4
	DefaultRateSupport   = 5 // |DR|: distinct candidate data rates
)

// ErrBadConfig reports invalid workload parameters.
var ErrBadConfig = errors.New("workload: invalid config")

// PipelineStage describes one canonical AR pipeline stage.
type PipelineStage struct {
	Name     string
	OutputKb float64
	// BaseWorkMS is the nominal processing delay of rho_unit data for
	// this stage on a speed-factor-1 station.
	BaseWorkMS float64
}

// CanonicalPipeline returns the paper's four-stage AR pipeline: render
// object (100Kb), track objects (64Kb), update world model (64Kb),
// recognize objects (64Kb). Rendering is the most computing-intensive
// stage (Section III-B).
func CanonicalPipeline() []PipelineStage {
	return []PipelineStage{
		{Name: "render", OutputKb: 100, BaseWorkMS: 30},
		{Name: "track", OutputKb: 64, BaseWorkMS: 12},
		{Name: "world-model", OutputKb: 64, BaseWorkMS: 10},
		{Name: "recognize", OutputKb: 64, BaseWorkMS: 20},
	}
}

// Config parameterizes request generation. The zero value plus NumRequests
// reproduces the paper defaults.
type Config struct {
	// NumRequests is the workload size |R|.
	NumRequests int
	// NumStations is the number of base stations users attach to.
	NumStations int
	// MinRate and MaxRate bound the data-rate support DR in MB/s. Zero
	// values select [30, 50].
	MinRate, MaxRate float64
	// RateSupport is |DR|, the number of distinct candidate rates per
	// request (zero selects 5).
	RateSupport int
	// MinUnitReward and MaxUnitReward bound the per-MB/s reward in
	// dollars. Zero values select [12, 15].
	MinUnitReward, MaxUnitReward float64
	// MinTasks and MaxTasks bound pipeline length. Zero values select
	// [DefaultMinTasks, DefaultMaxTasks] = [4, 4].
	MinTasks, MaxTasks int
	// DeadlineMS is the latency requirement (zero selects 200 ms).
	DeadlineMS float64
	// ArrivalHorizon spreads arrivals uniformly over slots
	// [0, ArrivalHorizon); zero puts every arrival at slot 0 (the offline
	// problem).
	ArrivalHorizon int
	// MinDurationSlots and MaxDurationSlots bound how long an admitted
	// stream occupies its service instance. Zero values select [20, 60]
	// slots (1-3 s at the default 50 ms slot).
	MinDurationSlots, MaxDurationSlots int
	// GeometricRates, when true, draws rate distributions whose mass
	// decays geometrically with rate ("the probability of requests with
	// large data rates is usually small"); otherwise uniform.
	GeometricRates bool
	// RateDecay is the geometric decay factor (zero selects 0.7).
	RateDecay float64
	// IndependentRewards switches to the paper's demand-independent
	// reward model: each outcome's reward is uniform in
	// [MinUnitReward, MaxUnitReward] * E[default rate] regardless of its
	// rate, instead of unit price * rate. See dist.IndependentRateReward.
	IndependentRewards bool
}

func (c *Config) fill() error {
	if c.NumRequests <= 0 || c.NumStations <= 0 {
		return fmt.Errorf("%w: requests=%d stations=%d", ErrBadConfig, c.NumRequests, c.NumStations)
	}
	if c.MinRate == 0 && c.MaxRate == 0 {
		c.MinRate, c.MaxRate = DefaultMinRate, DefaultMaxRate
	}
	if c.RateSupport == 0 {
		c.RateSupport = DefaultRateSupport
	}
	if c.MinUnitReward == 0 && c.MaxUnitReward == 0 {
		c.MinUnitReward, c.MaxUnitReward = DefaultMinUnitReward, DefaultMaxUnitReward
	}
	if c.MinTasks == 0 && c.MaxTasks == 0 {
		c.MinTasks, c.MaxTasks = DefaultMinTasks, DefaultMaxTasks
	}
	if c.DeadlineMS == 0 {
		c.DeadlineMS = mec.DefaultDeadlineMS
	}
	if c.RateDecay == 0 {
		c.RateDecay = 0.7
	}
	if c.MinDurationSlots == 0 && c.MaxDurationSlots == 0 {
		c.MinDurationSlots, c.MaxDurationSlots = 20, 60
	}
	if c.MinRate < 0 || c.MaxRate < c.MinRate || c.RateSupport < 1 ||
		c.MinUnitReward < 0 || c.MaxUnitReward < c.MinUnitReward ||
		c.MinTasks < 1 || c.MaxTasks < c.MinTasks || c.DeadlineMS <= 0 ||
		c.ArrivalHorizon < 0 || c.RateDecay <= 0 || c.RateDecay >= 1 ||
		c.MinDurationSlots < 1 || c.MaxDurationSlots < c.MinDurationSlots {
		return fmt.Errorf("%w: %+v", ErrBadConfig, *c)
	}
	return nil
}

// Generate produces a workload of AR requests. Request IDs are 0..N-1 and
// arrival slots are non-decreasing.
func Generate(cfg Config, rng *rand.Rand) ([]*mec.Request, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	stages := CanonicalPipeline()
	reqs := make([]*mec.Request, cfg.NumRequests)
	// Non-decreasing arrivals keep request IDs aligned with time order.
	arrivals := drawArrivals(cfg.NumRequests, cfg.ArrivalHorizon, rng)

	for j := range reqs {
		nTasks := cfg.MinTasks
		if cfg.MaxTasks > cfg.MinTasks {
			nTasks += rng.Intn(cfg.MaxTasks - cfg.MinTasks + 1)
		}
		tasks := make([]mec.Task, nTasks)
		for k := range tasks {
			// The first task of every pipeline is the render stage (the
			// dominant one); the rest cycle through the remaining stages.
			var st PipelineStage
			if k == 0 {
				st = stages[0]
			} else {
				st = stages[1+(k-1)%(len(stages)-1)]
			}
			jitter := 0.95 + rng.Float64()*0.1
			tasks[k] = mec.Task{
				Name:     st.Name,
				OutputKb: st.OutputKb,
				WorkMS:   st.BaseWorkMS * jitter,
			}
		}

		var (
			d   *dist.RateReward
			err error
		)
		switch {
		case cfg.IndependentRewards:
			// Scale the reward range so totals stay comparable with the
			// unit-price model at the mean rate.
			meanRate := (cfg.MinRate + cfg.MaxRate) / 2
			decay := 0.0
			if cfg.GeometricRates {
				decay = cfg.RateDecay
			}
			d, err = dist.IndependentRateReward(cfg.RateSupport, cfg.MinRate, cfg.MaxRate,
				cfg.MinUnitReward*meanRate, cfg.MaxUnitReward*meanRate, decay, rng)
		case cfg.GeometricRates:
			d, err = dist.GeometricRateReward(cfg.RateSupport, cfg.MinRate, cfg.MaxRate,
				cfg.MinUnitReward, cfg.MaxUnitReward, cfg.RateDecay, rng)
		default:
			d, err = dist.UniformRateReward(cfg.RateSupport, cfg.MinRate, cfg.MaxRate,
				cfg.MinUnitReward, cfg.MaxUnitReward, rng)
		}
		if err != nil {
			return nil, fmt.Errorf("workload: request %d distribution: %w", j, err)
		}

		duration := cfg.MinDurationSlots
		if cfg.MaxDurationSlots > cfg.MinDurationSlots {
			duration += rng.Intn(cfg.MaxDurationSlots - cfg.MinDurationSlots + 1)
		}
		reqs[j] = &mec.Request{
			ID:            j,
			ArrivalSlot:   arrivals[j],
			AccessStation: rng.Intn(cfg.NumStations),
			Tasks:         tasks,
			DeadlineMS:    cfg.DeadlineMS,
			DurationSlots: duration,
			Dist:          d,
		}
		if err := reqs[j].Validate(); err != nil {
			return nil, err
		}
	}
	return reqs, nil
}

// Reset clears the realization state of every request so another algorithm
// can replay the same workload.
func Reset(reqs []*mec.Request) {
	for _, r := range reqs {
		r.ResetRealization()
	}
}

// Clone deep-copies the workload's mutable state (realizations cleared);
// distributions and tasks are shared immutable data.
func Clone(reqs []*mec.Request) []*mec.Request {
	out := make([]*mec.Request, len(reqs))
	for i, r := range reqs {
		out[i] = r.CloneShallow()
	}
	return out
}
