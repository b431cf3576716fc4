package experiment

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mecoffload/internal/sim"
)

func fastOpts() Options {
	return Options{Repetitions: 2, Seed: 123, Parallel: 2}
}

func TestFig4ShapesAndRendering(t *testing.T) {
	tbl, err := Fig4(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if tbl.ID != "fig4" || len(tbl.Rows) != 5 {
		t.Fatalf("table %q with %d rows", tbl.ID, len(tbl.Rows))
	}
	// Every cell must be filled with the right repetition count.
	for _, row := range tbl.Rows {
		for _, algo := range tbl.Algorithms {
			c := row.Cells[algo]
			if c == nil {
				t.Fatalf("missing cell (%v, %s)", row.X, algo)
			}
			if c.Reward.N() != 2 {
				t.Fatalf("cell (%v, %s) has %d reps", row.X, algo, c.Reward.N())
			}
		}
	}
	// DynamicRR must beat online Greedy at the congested end.
	last := tbl.Rows[len(tbl.Rows)-1]
	if last.Cells[AlgoDynamicRR].Reward.Mean() <= last.Cells[AlgoGreedy].Reward.Mean() {
		t.Fatalf("DynamicRR %.0f <= Greedy %.0f at 300 requests",
			last.Cells[AlgoDynamicRR].Reward.Mean(), last.Cells[AlgoGreedy].Reward.Mean())
	}
	// Rewards grow from 100 to 300 requests for DynamicRR.
	if tbl.Rows[0].Cells[AlgoDynamicRR].Reward.Mean() >= last.Cells[AlgoDynamicRR].Reward.Mean() {
		t.Fatal("reward should grow with offered load before saturation")
	}

	var text strings.Builder
	if err := tbl.WriteText(&text, MetricReward); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "DynamicRR") {
		t.Fatal("text rendering lost algorithm header")
	}
	var csv strings.Builder
	if err := tbl.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	// header + 5 rows * 4 algorithms * 4 metrics
	if want := 1 + 5*4*4; len(lines) != want {
		t.Fatalf("CSV has %d lines, want %d", len(lines), want)
	}
}

func TestFig3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("LP-heavy")
	}
	opts := fastOpts()
	opts.Repetitions = 1
	tbl, err := Fig3(opts)
	if err != nil {
		t.Fatal(err)
	}
	last := tbl.Rows[len(tbl.Rows)-1]
	heu := last.Cells[AlgoHeu].Reward.Mean()
	appro := last.Cells[AlgoAppro].Reward.Mean()
	greedy := last.Cells[AlgoGreedy].Reward.Mean()
	if heu < appro*0.95 {
		t.Errorf("Heu %.0f below Appro %.0f", heu, appro)
	}
	if appro <= greedy {
		t.Errorf("Appro %.0f should beat Greedy %.0f", appro, greedy)
	}
	// Fig 3(c): the LP-based algorithms dominate the runtime plot.
	if last.Cells[AlgoAppro].RuntimeMS.Mean() < 10*last.Cells[AlgoGreedy].RuntimeMS.Mean() {
		t.Error("Appro runtime should dwarf Greedy's")
	}
}

func TestFig6RewardGrowsWithMaxRate(t *testing.T) {
	tbl, err := Fig6(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	first := tbl.Rows[0].Cells[AlgoDynamicRR].Reward.Mean()
	last := tbl.Rows[len(tbl.Rows)-1].Cells[AlgoDynamicRR].Reward.Mean()
	if last <= first {
		t.Fatalf("reward should grow with max data rate: %.0f -> %.0f", first, last)
	}
}

func TestRegretSublinear(t *testing.T) {
	opts := fastOpts()
	reg, err := Regret(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(reg.Checkpoints) != len(reg.Regret) || len(reg.Checkpoints) != len(reg.Bound) {
		t.Fatal("misaligned regret series")
	}
	// Measured regret must stay below the (loose) theoretical bound shape.
	for i := range reg.Checkpoints {
		if reg.Regret[i].Mean() > reg.Bound[i] {
			t.Fatalf("regret %.0f above bound %.0f at T=%d",
				reg.Regret[i].Mean(), reg.Bound[i], reg.Checkpoints[i])
		}
	}
	// Sub-linearity: doubling T from the middle to the end must grow
	// regret by less than 2x.
	mid := reg.Regret[3].Mean() // T=150
	end := reg.Regret[6].Mean() // T=300
	if mid > 0 && end > 2.4*mid {
		t.Fatalf("regret nearly linear: %.0f at T=150 vs %.0f at T=300", mid, end)
	}

	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "Theorem 3") {
		t.Fatal("regret rendering lost its header")
	}
	var csv strings.Builder
	if err := reg.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(strings.TrimSpace(csv.String()), "\n")) != 1+len(reg.Checkpoints) {
		t.Fatal("regret CSV row count wrong")
	}
}

// TestUnknownAlgorithm: a name the algorithm table lacks, or holds only in
// the other mode, fails the harness's offline and online runs with its
// ErrUnknownAlgorithm.
func TestUnknownAlgorithm(t *testing.T) {
	inst, err := genInstance(4, offlineWorkload(5), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"Nope", AlgoDynamicRR, AlgoFullResolve} {
		_, err := sim.RunOffline(algo, inst.net, inst.reqs, rand.New(rand.NewSource(1)), false)
		if !errors.Is(err, ErrUnknownAlgorithm) {
			t.Errorf("offline %s: %v, want ErrUnknownAlgorithm", algo, err)
		}
	}
	opts := Options{Horizon: 10}
	for _, algo := range []string{"Nope", AlgoExact, AlgoAppro, AlgoHeu} {
		if _, err := opts.simulate(inst, 1)(sim.NewScheduler(algo)); !errors.Is(err, ErrUnknownAlgorithm) {
			t.Errorf("online %s: %v, want ErrUnknownAlgorithm", algo, err)
		}
	}
}

func TestAblationKappaRuns(t *testing.T) {
	opts := fastOpts()
	opts.Repetitions = 1
	tbl, err := AblationKappa(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row.Cells[AlgoDynamicRR].Reward.Mean() <= 0 {
			t.Fatalf("kappa=%v produced zero reward", row.X)
		}
	}
}

func TestAblationPolicyRuns(t *testing.T) {
	opts := fastOpts()
	opts.Repetitions = 1
	tbl, err := AblationPolicy(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range tbl.Algorithms {
		if tbl.Rows[0].Cells[algo].Reward.Mean() <= 0 {
			t.Fatalf("policy %s produced zero reward", algo)
		}
	}
}

func TestExactGapSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("branch-and-bound heavy")
	}
	opts := fastOpts()
	opts.Repetitions = 1
	tbl, err := ExactGap(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows[:2] { // small instances only in tests
		exact := row.Cells[AlgoExact].Reward.Mean()
		hind := row.Cells[AlgoHindsight].Reward.Mean()
		if exact <= 0 || hind <= 0 {
			t.Fatalf("x=%v: degenerate rewards exact=%v hindsight=%v", row.X, exact, hind)
		}
	}
}

// TestAblationRewardModelWidensGap pins A6's reading on CI95s, not on
// bare means: demand-independent rewards do not shrink Heu's edge over
// OCORP by more than the experiment can resolve. Each edge is the ratio
// of the two algorithms' mean rewards over the repetitions, its standard
// error propagated from theirs (Heu and OCORP run on the same instances,
// so ignoring their positive covariance only widens the interval). The
// test fails when the independent edge lies below the unit-price one by
// more than the combined CI95, and runs at reduced scale with enough
// repetitions that this interval is under a tenth of the edge itself:
// two repetitions at full scale flipped whenever an LP tie moved Heu's
// vertex.
func TestAblationRewardModelWidensGap(t *testing.T) {
	if testing.Short() {
		t.Skip("LP-heavy")
	}
	opts := fastOpts()
	opts.Repetitions = 16
	opts.Requests = 60
	tbl, err := AblationRewardModel(opts)
	if err != nil {
		t.Fatal(err)
	}
	edge := func(row Row) (ratio, se float64) {
		heu, ocorp := &row.Cells[AlgoHeu].Reward, &row.Cells[AlgoOCORP].Reward
		ratio = heu.Mean() / ocorp.Mean()
		return ratio, ratio * math.Hypot(heu.StdErr()/heu.Mean(), ocorp.StdErr()/ocorp.Mean())
	}
	unitPrice, seU := edge(tbl.Rows[0])
	independent, seI := edge(tbl.Rows[1])
	ci := 1.96 * math.Hypot(seU, seI)
	t.Logf("Heu/OCORP: unit price %.3f, independent %.3f, difference CI95 ± %.3f", unitPrice, independent, ci)
	if ci > unitPrice/10 {
		t.Fatalf("CI95 ± %.3f does not resolve an edge of %.3f: add repetitions", ci, unitPrice)
	}
	if independent < unitPrice-ci {
		t.Fatalf("independent rewards shrink Heu's edge beyond the CI95: %.3f -> %.3f (± %.3f)", unitPrice, independent, ci)
	}
}

func TestAblationDiscretizationRuns(t *testing.T) {
	opts := fastOpts()
	opts.Repetitions = 1
	tbl, err := AblationDiscretization(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range tbl.Algorithms {
		if tbl.Rows[0].Cells[algo].Reward.Mean() <= 0 {
			t.Fatalf("%s produced zero reward", algo)
		}
	}
}

func TestLearningCurveRuns(t *testing.T) {
	opts := fastOpts()
	opts.Repetitions = 1
	lc, err := Learning(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(lc.WindowStart) == 0 || len(lc.Learner) != len(lc.WindowStart) || len(lc.Fixed) != len(lc.WindowStart) {
		t.Fatalf("misaligned learning curve: %d windows", len(lc.WindowStart))
	}
	totalLearner := 0.0
	for i := range lc.Learner {
		totalLearner += lc.Learner[i].Mean()
	}
	if totalLearner <= 0 {
		t.Fatal("learner earned nothing")
	}
	var text strings.Builder
	if err := lc.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "E12") {
		t.Fatal("rendering lost header")
	}
	var csv strings.Builder
	if err := lc.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(strings.TrimSpace(csv.String()), "\n")) != 1+len(lc.WindowStart) {
		t.Fatal("CSV row count wrong")
	}
}

// TestNegativeSizesRejected pins Options' contract: zero selects a
// default, a negative size is an error, never a panic or an empty table.
func TestNegativeSizesRejected(t *testing.T) {
	for _, opts := range []Options{{Repetitions: -1}, {Stations: -2}, {Requests: -1}, {Horizon: -5}} {
		if _, err := Fig3(opts); !errors.Is(err, ErrNegativeSize) {
			t.Errorf("Fig3(%+v): err = %v, want ErrNegativeSize", opts, err)
		}
		if _, err := Regret(opts); !errors.Is(err, ErrNegativeSize) {
			t.Errorf("Regret(%+v): err = %v, want ErrNegativeSize", opts, err)
		}
	}
}
