package mecoffload

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

func testScenario(t *testing.T, cfg ScenarioConfig, seed int64) *Scenario {
	t.Helper()
	scn, err := NewScenario(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("NewScenario: %v", err)
	}
	return scn
}

func TestScenarioDefaults(t *testing.T) {
	scn := testScenario(t, ScenarioConfig{}, 1)
	if scn.Net.NumStations() != 20 {
		t.Fatalf("stations = %d, want 20", scn.Net.NumStations())
	}
	if len(scn.Offline) != 150 || len(scn.Online) != 150 {
		t.Fatalf("workload sizes %d/%d, want 150", len(scn.Offline), len(scn.Online))
	}
	for _, r := range scn.Offline {
		if r.ArrivalSlot != 0 {
			t.Fatal("offline arrivals must be at slot 0")
		}
	}
	prev := 0
	for i, r := range scn.Online {
		if r.ArrivalSlot < prev {
			t.Fatal("online arrivals must be non-decreasing")
		}
		prev = r.ArrivalSlot
		if r.ID != i {
			t.Fatalf("online request %d has ID %d", i, r.ID)
		}
		// The online request is the offline one with an arrival slot.
		same := *r
		same.ArrivalSlot = 0
		if !reflect.DeepEqual(&same, scn.Offline[i]) {
			t.Fatalf("online request %d is not offline request %d with an arrival slot:\n%+v\n%+v", i, i, r, scn.Offline[i])
		}
	}
}

func TestRunOfflineAllAlgorithms(t *testing.T) {
	scn := testScenario(t, ScenarioConfig{Stations: 6, Requests: 40}, 2)
	for _, algo := range OfflineAlgorithms() {
		if algo == Exact {
			continue // branch and bound at 40x6 is exercised separately
		}
		res, err := scn.RunOffline(algo, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if res.Served == 0 {
			t.Fatalf("%s served nothing", algo)
		}
	}
	for _, algo := range []Algorithm{"bogus", DynamicRR} { // DynamicRR is online-only
		if _, err := scn.RunOffline(algo, rand.New(rand.NewSource(1))); !errors.Is(err, ErrUnknownAlgorithm) {
			t.Errorf("RunOffline(%s) = %v, want ErrUnknownAlgorithm", algo, err)
		}
	}
}

func TestRunOfflineExactSmall(t *testing.T) {
	scn := testScenario(t, ScenarioConfig{Stations: 3, Requests: 10}, 4)
	res, err := scn.RunOffline(Exact, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if res.ExpectedLPBound <= 0 {
		t.Fatal("Exact should report a positive ILP objective")
	}
}

func TestRunOnlineAllAlgorithms(t *testing.T) {
	scn := testScenario(t, ScenarioConfig{Stations: 8, Requests: 80, ArrivalHorizon: 40}, 6)
	for _, algo := range OnlineAlgorithms() {
		res, err := scn.RunOnline(algo, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if res.Served == 0 {
			t.Fatalf("%s served nothing", algo)
		}
	}
	for _, algo := range []Algorithm{"bogus", Exact, Appro, Heu} { // offline-only
		if _, err := scn.RunOnline(algo, rand.New(rand.NewSource(1))); !errors.Is(err, ErrUnknownAlgorithm) {
			t.Errorf("RunOnline(%s) = %v, want ErrUnknownAlgorithm", algo, err)
		}
	}
}

func TestScenarioReplayable(t *testing.T) {
	scn := testScenario(t, ScenarioConfig{Stations: 5, Requests: 30}, 8)
	a, err := scn.RunOffline(Heu, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := scn.RunOffline(Heu, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalReward != b.TotalReward || a.Served != b.Served {
		t.Fatalf("same seed differed: %v/%d vs %v/%d", a.TotalReward, a.Served, b.TotalReward, b.Served)
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	scn := testScenario(t, ScenarioConfig{Stations: 5, Requests: 25, ArrivalHorizon: 30}, 10)
	var buf bytes.Buffer
	if err := scn.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadScenarioJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Net.NumStations() != 5 || len(back.Online) != 25 || len(back.Offline) != 25 {
		t.Fatalf("restored scenario sizes wrong: %d stations, %d/%d requests",
			back.Net.NumStations(), len(back.Online), len(back.Offline))
	}
	for i, r := range back.Online {
		if r.ArrivalSlot != scn.Online[i].ArrivalSlot {
			t.Fatalf("arrival %d changed", i)
		}
	}
	for _, r := range back.Offline {
		if r.ArrivalSlot != 0 {
			t.Fatal("offline arrivals must reset to 0")
		}
	}
	// The restored scenario runs the same algorithm to the same outcome.
	a, err := scn.RunOnline(HeuKKT, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	back.Horizon = scn.Horizon
	b, err := back.RunOnline(HeuKKT, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalReward != b.TotalReward {
		t.Fatalf("restored scenario diverged: %v vs %v", a.TotalReward, b.TotalReward)
	}
}
