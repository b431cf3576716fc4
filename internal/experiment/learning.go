package experiment

import (
	"fmt"
	"io"

	"mecoffload/internal/bandit"
	"mecoffload/internal/stats"
)

// learningWindow is the slot-window width of the learning-curve series.
const learningWindow = 25

// LearningCurve (E12) tracks DynamicRR's per-window reward over time
// against the no-learning FixedMid policy on the same saturated workload:
// the successive-elimination learner should close (and pass) the gap as
// arms get eliminated — the temporal view of what the regret experiment
// aggregates.
type LearningCurve struct {
	// WindowStart[i] is the first slot of window i.
	WindowStart []int
	// Learner[i] and Fixed[i] aggregate per-window reward over reps.
	Learner []stats.Summary
	Fixed   []stats.Summary
}

// Learning runs E12.
func Learning(opts Options) (*LearningCurve, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	windows := regretHorizon / learningWindow
	out := &LearningCurve{
		WindowStart: make([]int, windows),
		Learner:     make([]stats.Summary, windows),
		Fixed:       make([]stats.Summary, windows),
	}
	for w := 0; w < windows; w++ {
		out.WindowStart[w] = w * learningWindow
	}

	for rep := 0; rep < opts.Repetitions; rep++ {
		seed := instSeed(opts.Seed, 12, 0, rep)
		inst, err := genInstance(opts.Stations, onlineWorkload(regretRequests, regretHorizon), seed)
		if err != nil {
			return nil, err
		}
		se, _, err := learnerRun(inst, regretKappa, nil, seed*7+2, regretHorizon, nil)
		if err != nil {
			return nil, err
		}
		fixed, err := bandit.NewFixed(regretKappa, regretKappa/2)
		if err != nil {
			return nil, err
		}
		fx, _, err := learnerRun(inst, regretKappa, fixed, seed*7+2, regretHorizon, nil)
		if err != nil {
			return nil, err
		}
		for w := 0; w < windows; w++ {
			out.Learner[w].Add(windowSum(se, w))
			out.Fixed[w].Add(windowSum(fx, w))
		}
	}
	return out, nil
}

func windowSum(slot []float64, w int) float64 {
	sum := 0.0
	for t := w * learningWindow; t < (w+1)*learningWindow && t < len(slot); t++ {
		sum += slot[t]
	}
	return sum
}

// WriteText renders the learning curve.
func (lc *LearningCurve) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Learning curve (E12) — reward per %d-slot window\n", learningWindow); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%10s  %22s  %22s\n", "slots", "SuccessiveElim", "FixedMid"); err != nil {
		return err
	}
	for i, start := range lc.WindowStart {
		if _, err := fmt.Fprintf(w, "%4d-%-5d  %14.1f ± %5.1f  %14.1f ± %5.1f\n",
			start, start+learningWindow,
			lc.Learner[i].Mean(), lc.Learner[i].CI95(),
			lc.Fixed[i].Mean(), lc.Fixed[i].CI95()); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteCSV emits the learning curve as CSV rows.
func (lc *LearningCurve) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "experiment,windowStart,learnerMean,learnerCI95,fixedMean,fixedCI95"); err != nil {
		return err
	}
	for i, start := range lc.WindowStart {
		if _, err := fmt.Fprintf(w, "learning,%d,%.4f,%.4f,%.4f,%.4f\n",
			start, lc.Learner[i].Mean(), lc.Learner[i].CI95(),
			lc.Fixed[i].Mean(), lc.Fixed[i].CI95()); err != nil {
			return err
		}
	}
	return nil
}
