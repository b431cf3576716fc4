// Command mecsim regenerates the paper's evaluation (Figs. 3-6), the
// Theorem 3 regret validation, and the ablation studies from DESIGN.md.
//
// Usage:
//
//	mecsim -experiment fig3 [-reps 5] [-seed 42] [-csv out.csv]
//	mecsim -experiment all
//
// The -experiment ids are those of the experiments list (mecsim -h prints
// them), and all runs every one in that order.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"mecoffload/internal/experiment"
	"mecoffload/internal/prof"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "mecsim: %v\n", err)
		os.Exit(1)
	}
}

// report is what an experiment returns: its text tables and CSV rows.
type report interface {
	WriteText(io.Writer) error
	WriteCSV(io.Writer) error
}

// allMetrics reports a figure table with every metric's text table.
type allMetrics struct{ *experiment.Table }

func (t allMetrics) WriteText(w io.Writer) error { return t.WriteAllText(w) }

// table adapts a figure or ablation sweep to an experiment's run.
func table(sweep func(experiment.Options) (*experiment.Table, error)) func(experiment.Options) (report, error) {
	return func(opts experiment.Options) (report, error) {
		tbl, err := sweep(opts)
		return allMetrics{tbl}, err
	}
}

// entry is one -experiment id and what it runs.
type entry struct {
	id  string
	run func(experiment.Options) (report, error)
}

// experiments lists every -experiment id in the order "all" runs them.
var experiments = []entry{
	{"fig3", table(experiment.Fig3)},
	{"fig4", table(experiment.Fig4)},
	{"fig5", table(experiment.Fig5)},
	{"fig6", table(experiment.Fig6)},
	{"ablation-rounding", table(experiment.AblationRounding)},
	{"ablation-kappa", table(experiment.AblationKappa)},
	{"ablation-policy", table(experiment.AblationPolicy)},
	{"ablation-slotsize", table(experiment.AblationSlotSize)},
	{"ablation-discretization", table(experiment.AblationDiscretization)},
	{"exactgap", table(experiment.ExactGap)},
	{"ablation-rewardmodel", table(experiment.AblationRewardModel)},
	{"decision-cost", table(experiment.DecisionCost)},
	{"regret", func(opts experiment.Options) (report, error) { return experiment.Regret(opts) }},
	{"learning", func(opts experiment.Options) (report, error) { return experiment.Learning(opts) }},
	{"drift", func(opts experiment.Options) (report, error) { return experiment.Drift(opts) }},
}

// experimentIDs lists the ids -experiment accepts.
func experimentIDs() string {
	ids := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		ids = append(ids, e.id)
	}
	return strings.Join(append(ids, "all"), ", ")
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("mecsim", flag.ContinueOnError)
	var (
		exp      = fs.String("experiment", "all", "experiment id: "+experimentIDs())
		reps     = fs.Int("reps", experiment.DefaultRepetitions, "repetitions per cell")
		seed     = fs.Int64("seed", 42, "base random seed")
		stations = fs.Int("stations", experiment.DefaultStations, "number of base stations")
		requests = fs.Int("requests", experiment.DefaultRequests, "workload size for fixed-|R| sweeps")
		horizon  = fs.Int("horizon", experiment.DefaultHorizon, "online arrival horizon in slots")
		parallel = fs.Int("parallel", 0, "worker goroutines (0 = GOMAXPROCS; results are identical for every value)")
		csvPath  = fs.String("csv", "", "also write results as CSV to this file")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *exp != "all" && !slices.ContainsFunc(experiments, func(e entry) bool { return e.id == *exp }) {
		return fmt.Errorf("unknown experiment %q (want one of %s)", *exp, experimentIDs())
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"-reps", *reps}, {"-stations", *stations}, {"-requests", *requests}, {"-horizon", *horizon}} {
		if f.v < 0 {
			return fmt.Errorf("%s %d: want 0 (the default) or a positive size", f.name, f.v)
		}
	}
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()

	opts := experiment.Options{
		Repetitions: *reps,
		Seed:        *seed,
		Stations:    *stations,
		Requests:    *requests,
		Horizon:     *horizon,
		Parallel:    *parallel,
	}

	var csv io.Writer
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "mecsim: closing %s: %v\n", *csvPath, cerr)
			}
		}()
		csv = f
	}

	for _, e := range experiments {
		if *exp != "all" && *exp != e.id {
			continue
		}
		rep, err := e.run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		if err := rep.WriteText(out); err != nil {
			return err
		}
		if csv != nil {
			if err := rep.WriteCSV(csv); err != nil {
				return err
			}
		}
	}
	return nil
}
