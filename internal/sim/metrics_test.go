package sim

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mecoffload/internal/core"
	"mecoffload/internal/mec"
)

// simulateRecorded runs sched over the fixture with rec, when not nil,
// installed as the step hook.
func simulateRecorded(t *testing.T, net *mec.Network, reqs []*mec.Request, sched Scheduler, rec *Recorder, seed int64) *core.Result {
	t.Helper()
	opts := RunOptions{Horizon: 60}
	if rec != nil {
		opts.StepChecker = rec.Record
	}
	res, _, err := Simulate(net, reqs, sched, rand.New(rand.NewSource(seed)), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRecorderTransparent: a Recorder installed as the step hook only
// observes. OCORP and DynamicRR decide the same with and without it, so
// recording does not perturb the decisions.
func TestRecorderTransparent(t *testing.T) {
	net, reqs := fixture(t, 8, 100, 40, 21)
	for _, mk := range []func() Scheduler{
		func() Scheduler { return &OnlineOCORP{} },
		func() Scheduler { return allSchedulers(t)["DynamicRR"]() },
	} {
		var rec Recorder
		plain := simulateRecorded(t, net, reqs, mk(), nil, 22)
		recorded := simulateRecorded(t, net, reqs, mk(), &rec, 22)
		if !reflect.DeepEqual(plain.Decisions, recorded.Decisions) {
			t.Fatalf("%s: recording changed the decisions", plain.Algorithm)
		}
		samples := rec.Samples()
		if len(samples) == 0 {
			t.Fatalf("%s: no samples recorded", plain.Algorithm)
		}
		for _, s := range samples {
			if s.Utilization < 0 || s.Utilization > 1+1e-9 {
				t.Fatalf("%s: utilization %v out of [0, 1]", plain.Algorithm, s.Utilization)
			}
			if s.Admitted > s.Pending {
				t.Fatalf("%s: slot %d admitted %d of %d pending", plain.Algorithm, s.Slot, s.Admitted, s.Pending)
			}
		}
	}
}

// TestRecorderForwardsFeedback: with a Recorder as the step hook, the
// slot's feedback still reaches DynamicRR's bandit: some arm is played,
// each arm as often as in an unrecorded run, and the recorder samples.
func TestRecorderForwardsFeedback(t *testing.T) {
	net, reqs := fixture(t, 8, 120, 40, 23)
	plays := func(rec *Recorder) []int {
		d, err := NewDynamicRR(DynamicRROptions{})
		if err != nil {
			t.Fatal(err)
		}
		simulateRecorded(t, net, reqs, d, rec, 24)
		pol := d.Bandit().Policy()
		out := make([]int, pol.NumArms())
		for arm := range out {
			out[arm] = pol.Plays(arm)
		}
		return out
	}
	var rec Recorder
	plain, recorded := plays(nil), plays(&rec)
	if slices.Max(recorded) == 0 {
		t.Fatal("feedback never reached the learner")
	}
	if !slices.Equal(plain, recorded) {
		t.Fatalf("DynamicRR plays per arm %v recorded, %v plain", recorded, plain)
	}
	if len(rec.Samples()) == 0 {
		t.Fatal("no samples recorded")
	}
}

// TestRecorderSamplesSettledSlot: a sample reads the ledger after the slot
// settles, as SlotSample.Utilization says, so an oblivious scheduler's
// admissions count in the slot that admits them. OCORP's first recorded
// slot admits a request and must read a utilization above zero, and every
// sample equals the realized load the step hook sees.
func TestRecorderSamplesSettledSlot(t *testing.T) {
	net, reqs := fixture(t, 8, 100, 40, 21)
	var (
		rec  Recorder
		want []float64
	)
	hook := func(eng *Engine, res *core.Result, rep SlotReport, info StepInfo) error {
		if len(info.Pending) > 0 {
			want = append(want, (net.TotalCapacity()-eng.FreeCapacity())/net.TotalCapacity())
		}
		return rec.Record(eng, res, rep, info)
	}
	if _, _, err := Simulate(net, reqs, &OnlineOCORP{}, rand.New(rand.NewSource(22)), RunOptions{Horizon: 60, StepChecker: hook}); err != nil {
		t.Fatal(err)
	}
	samples := rec.Samples()
	if len(samples) != len(want) {
		t.Fatalf("%d samples, %d scheduled slots", len(samples), len(want))
	}
	if first := samples[0]; first.Admitted == 0 || first.Utilization <= 0 {
		t.Fatalf("first recorded slot %d admitted %d and reads utilization %v, want a settled load above 0",
			first.Slot, first.Admitted, first.Utilization)
	}
	for i, s := range samples {
		if math.Abs(s.Utilization-want[i]) > 1e-12 {
			t.Fatalf("slot %d: utilization %v, settled ledger %v", s.Slot, s.Utilization, want[i])
		}
	}
}

func TestRunTraceRoundTrip(t *testing.T) {
	net, reqs := fixture(t, 6, 60, 30, 25)
	var rec Recorder
	res, _, err := Simulate(net, reqs, &OnlineGreedy{}, rand.New(rand.NewSource(26)), RunOptions{Horizon: 50, StepChecker: rec.Record})
	if err != nil {
		t.Fatal(err)
	}

	tr := NewRunTrace(res, &rec)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRunTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Algorithm != tr.Algorithm || back.TotalReward != tr.TotalReward ||
		back.Served != tr.Served || len(back.Decisions) != len(tr.Decisions) {
		t.Fatalf("round trip lost data: %+v vs %+v", back, tr)
	}
	if len(back.Slots) != len(tr.Slots) {
		t.Fatalf("round trip lost slot samples: %d vs %d", len(back.Slots), len(tr.Slots))
	}
	// Served decisions must carry their rewards through the round trip.
	for i, d := range back.Decisions {
		if d.Served && d.Reward != tr.Decisions[i].Reward {
			t.Fatalf("decision %d reward changed", i)
		}
	}
}

func TestReadRunTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadRunTrace(bytes.NewBufferString("{nope")); err == nil {
		t.Fatal("want error for malformed JSON")
	}
}

func TestStationReport(t *testing.T) {
	net, reqs := fixture(t, 5, 80, 30, 27)
	var rec Recorder
	res, _, err := Simulate(net, reqs, &OnlineOCORP{}, rand.New(rand.NewSource(28)), RunOptions{Horizon: 50, StepChecker: rec.Record})
	if err != nil {
		t.Fatal(err)
	}
	report := rec.StationReport()
	if len(report) != net.NumStations() {
		t.Fatalf("report covers %d stations", len(report))
	}
	busy := 0
	for _, su := range report {
		if su.MeanUtilization < 0 || su.MeanUtilization > su.PeakUtilization+1e-12 {
			t.Fatalf("station %d: mean %v > peak %v", su.Station, su.MeanUtilization, su.PeakUtilization)
		}
		if su.PeakUtilization > 1+1e-9 {
			t.Fatalf("station %d peak %v above capacity", su.Station, su.PeakUtilization)
		}
		if su.PeakUtilization > 0 {
			busy++
		}
	}
	if res.Served > 0 && busy == 0 {
		t.Fatal("served requests but no station shows utilization")
	}
	// The trace embeds the report.
	tr := NewRunTrace(res, &rec)
	if len(tr.Stations) != net.NumStations() {
		t.Fatal("trace lost station report")
	}
}
