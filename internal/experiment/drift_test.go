package experiment

import (
	"strings"
	"testing"

	"mecoffload/internal/scenario"
)

// TestDriftExperimentSmoke: the full-simulation harness produces curves
// for every scenario, deterministic across invocations, and both writers
// render them.
func TestDriftExperimentSmoke(t *testing.T) {
	opts := Options{Repetitions: 1, Seed: 7}
	res, err := Drift(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != len(scenario.BuiltinNames()) {
		t.Fatalf("got %d scenarios, want %d", len(res.Scenarios), len(scenario.BuiltinNames()))
	}
	for _, sc := range res.Scenarios {
		if len(sc.Checkpoints) == 0 {
			t.Fatalf("%s: no checkpoints", sc.Name)
		}
		rw := sc.Reward
		if len(rw) != len(sc.Checkpoints) || len(sc.Regret) != len(sc.Checkpoints) {
			t.Fatalf("%s: %d reward and %d regret samples, want %d", sc.Name, len(rw), len(sc.Regret), len(sc.Checkpoints))
		}
		if rw[len(rw)-1].Mean() <= 0 {
			t.Fatalf("%s: no reward earned", sc.Name)
		}
		for i := range sc.Regret {
			if sc.Regret[i].Mean() < 0 {
				t.Fatalf("%s: negative regret", sc.Name)
			}
		}
	}

	res2, err := Drift(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range res.Scenarios {
		for j := range sc.Reward {
			if sc.Reward[j].Mean() != res2.Scenarios[i].Reward[j].Mean() {
				t.Fatalf("%s: drift experiment not deterministic", sc.Name)
			}
		}
	}

	var text, csv strings.Builder
	if err := res.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	for _, name := range scenario.BuiltinNames() {
		if !strings.Contains(text.String(), name) || !strings.Contains(csv.String(), name) {
			t.Fatalf("scenario %s missing from rendered output", name)
		}
	}
	if !strings.Contains(csv.String(), "cumReward") || !strings.Contains(csv.String(), "regret") {
		t.Fatal("CSV missing metrics")
	}
}
