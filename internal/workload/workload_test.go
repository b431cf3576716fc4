package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mecoffload/internal/mec"
)

func TestGenerateDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	reqs, err := Generate(Config{NumRequests: 50, NumStations: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 50 {
		t.Fatalf("generated %d requests", len(reqs))
	}
	for i, r := range reqs {
		if r.ID != i {
			t.Fatalf("request %d has ID %d", i, r.ID)
		}
		if r.ArrivalSlot != 0 {
			t.Fatalf("offline workload must arrive at slot 0, got %d", r.ArrivalSlot)
		}
		if r.AccessStation < 0 || r.AccessStation >= 10 {
			t.Fatalf("access station %d out of range", r.AccessStation)
		}
		if len(r.Tasks) != 4 {
			t.Fatalf("pipeline length %d, want the zero config's [DefaultMinTasks, DefaultMaxTasks] = [4, 4]", len(r.Tasks))
		}
		if r.Tasks[0].Name != "render" {
			t.Fatalf("first task %q, want render", r.Tasks[0].Name)
		}
		if r.DeadlineMS != mec.DefaultDeadlineMS {
			t.Fatalf("deadline %v", r.DeadlineMS)
		}
		if r.Dist.MinRate() < DefaultMinRate-1e-9 || r.Dist.MaxRate() > DefaultMaxRate+1e-9 {
			t.Fatalf("rates [%v, %v] outside defaults", r.Dist.MinRate(), r.Dist.MaxRate())
		}
		if r.DurationSlots < 20 || r.DurationSlots > 60 {
			t.Fatalf("duration %d outside [20, 60]", r.DurationSlots)
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("generated request invalid: %v", err)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	bad := []Config{
		{},
		{NumRequests: 5},
		{NumRequests: 5, NumStations: 3, MinRate: 50, MaxRate: 30},
		{NumRequests: 5, NumStations: 3, MinTasks: 3, MaxTasks: 2},
		{NumRequests: 5, NumStations: 3, ArrivalHorizon: -1},
		{NumRequests: 5, NumStations: 3, RateDecay: 1.5},
		{NumRequests: 5, NumStations: 3, MinDurationSlots: 5, MaxDurationSlots: 2},
		{NumRequests: 5, NumStations: 3, DeadlineMS: -10},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg, rng); err == nil {
			t.Errorf("config %d (%+v): want error", i, cfg)
		}
	}
}

func TestGenerateArrivalsSortedWithinHorizon(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		reqs, err := Generate(Config{NumRequests: 40, NumStations: 5, ArrivalHorizon: 30}, rng)
		if err != nil {
			return false
		}
		prev := 0
		for _, r := range reqs {
			if r.ArrivalSlot < prev || r.ArrivalSlot >= 30 {
				return false
			}
			prev = r.ArrivalSlot
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateGeometricRates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	reqs, err := Generate(Config{NumRequests: 10, NumStations: 3, GeometricRates: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		outs := r.Dist.Outcomes()
		for i := 1; i < len(outs); i++ {
			if outs[i].Prob >= outs[i-1].Prob {
				t.Fatal("geometric workload should have decaying rate mass")
			}
		}
	}
}

func TestResetAndClone(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	reqs, err := Generate(Config{NumRequests: 5, NumStations: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		r.Realize(rng)
	}
	clone := Clone(reqs)
	for i, c := range clone {
		if _, ok := c.Realized(); ok {
			t.Fatal("clone must clear realization")
		}
		if c == reqs[i] {
			t.Fatal("clone must copy request structs")
		}
	}
	// Originals still realized until Reset.
	if _, ok := reqs[0].Realized(); !ok {
		t.Fatal("original lost realization")
	}
	Reset(reqs)
	for _, r := range reqs {
		if _, ok := r.Realized(); ok {
			t.Fatal("Reset did not clear realization")
		}
	}
}

func TestCanonicalPipeline(t *testing.T) {
	stages := CanonicalPipeline()
	if len(stages) != 4 {
		t.Fatalf("canonical pipeline has %d stages, want 4", len(stages))
	}
	if stages[0].Name != "render" || stages[0].OutputKb != 100 {
		t.Fatalf("first stage %+v, want render/100Kb", stages[0])
	}
	// Rendering is the most computing-intensive task (Section III-B).
	for _, st := range stages[1:] {
		if st.BaseWorkMS >= stages[0].BaseWorkMS {
			t.Fatalf("stage %s work %v >= render %v", st.Name, st.BaseWorkMS, stages[0].BaseWorkMS)
		}
		if st.OutputKb != 64 {
			t.Fatalf("stage %s output %v, want 64", st.Name, st.OutputKb)
		}
	}
}

func TestGenerateTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr, err := GenerateTrace(120, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.FPS) != 120 {
		t.Fatalf("trace length %d", len(tr.FPS))
	}
	for _, f := range tr.FPS {
		if f < TraceMinFPS || f > TraceMaxFPS {
			t.Fatalf("fps %d outside [%d, %d]", f, TraceMinFPS, TraceMaxFPS)
		}
	}
	if _, err := GenerateTrace(0, rng); err == nil {
		t.Fatal("want error for zero duration")
	}
}

func TestTraceRawRates(t *testing.T) {
	tr := &FrameTrace{FPS: []int{100}, FrameKb: 64}
	raw := tr.RawRatesMBs()
	// 100 frames/s * 64 Kb / 8000 Kb-per-MB = 0.8 MB/s.
	if math.Abs(raw[0]-0.8) > 1e-12 {
		t.Fatalf("raw rate %v, want 0.8", raw[0])
	}
}

func TestTraceScaleToRate(t *testing.T) {
	tr := &FrameTrace{FPS: []int{90, 105, 120}, FrameKb: 64}
	scaled := tr.ScaleToRate(30, 50)
	if scaled[0] != 30 || scaled[2] != 50 {
		t.Fatalf("scaled endpoints %v", scaled)
	}
	if scaled[1] <= 30 || scaled[1] >= 50 {
		t.Fatalf("midpoint %v not interior", scaled[1])
	}
	// Constant trace maps to the minimum.
	flat := &FrameTrace{FPS: []int{100, 100}, FrameKb: 64}
	fs := flat.ScaleToRate(30, 50)
	if fs[0] != 30 || fs[1] != 30 {
		t.Fatalf("flat trace scaled to %v, want all 30", fs)
	}
}

func TestTraceEmpiricalDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tr, err := GenerateTrace(300, rng)
	if err != nil {
		t.Fatal(err)
	}
	d, err := tr.EmpiricalDistribution(5, 30, 50, 12, 15, rng)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() < 1 || d.Len() > 5 {
		t.Fatalf("support %d", d.Len())
	}
	if d.MinRate() < 30 || d.MaxRate() > 50 {
		t.Fatalf("rates [%v, %v]", d.MinRate(), d.MaxRate())
	}
	if _, err := tr.EmpiricalDistribution(0, 30, 50, 12, 15, rng); err == nil {
		t.Fatal("want error for zero support")
	}
}
