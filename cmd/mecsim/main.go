// Command mecsim regenerates the paper's evaluation (Figs. 3-6), the
// Theorem 3 regret validation, and the ablation studies from DESIGN.md.
//
// Usage:
//
//	mecsim -experiment fig3 [-reps 5] [-seed 42] [-csv out.csv]
//	mecsim -experiment all
//
// Experiments: fig3, fig4, fig5, fig6, regret, learning, drift, exactgap,
// ablation-rounding, ablation-kappa, ablation-policy, ablation-slotsize,
// ablation-discretization, ablation-rewardmodel, decision-cost, all.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mecoffload/internal/experiment"
	"mecoffload/internal/prof"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "mecsim: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("mecsim", flag.ContinueOnError)
	var (
		exp       = fs.String("experiment", "all", "experiment id (fig3..fig6, regret, ablation-*, all)")
		reps      = fs.Int("reps", experiment.DefaultRepetitions, "repetitions per cell")
		seed      = fs.Int64("seed", 42, "base random seed")
		stations  = fs.Int("stations", experiment.DefaultStations, "number of base stations")
		requests  = fs.Int("requests", experiment.DefaultRequests, "workload size for fixed-|R| sweeps")
		horizon   = fs.Int("horizon", experiment.DefaultHorizon, "online arrival horizon in slots")
		parallel  = fs.Int("parallel", 0, "worker goroutines (0 = GOMAXPROCS; results are identical for every value)")
		csvPath   = fs.String("csv", "", "also write results as CSV to this file")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write an allocation profile to this file at exit")
		exp3Gamma = fs.Float64("exp3-gamma", 0, "Exp3 exploration mix for ablation-policy (0 = default)")
		exp3Alpha = fs.Float64("exp3-alpha", 0, "Exp3.S weight-sharing rate for ablation-policy (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
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
		Exp3Gamma:   *exp3Gamma,
		Exp3Alpha:   *exp3Alpha,
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

	type figure struct {
		id  string
		run func(experiment.Options) (*experiment.Table, error)
	}
	figures := []figure{
		{"fig3", experiment.Fig3},
		{"fig4", experiment.Fig4},
		{"fig5", experiment.Fig5},
		{"fig6", experiment.Fig6},
		{"ablation-rounding", experiment.AblationRounding},
		{"ablation-kappa", experiment.AblationKappa},
		{"ablation-policy", experiment.AblationPolicy},
		{"ablation-slotsize", experiment.AblationSlotSize},
		{"ablation-discretization", experiment.AblationDiscretization},
		{"exactgap", experiment.ExactGap},
		{"ablation-rewardmodel", experiment.AblationRewardModel},
		{"decision-cost", experiment.DecisionCost},
	}

	ran := false
	for _, f := range figures {
		if *exp != "all" && *exp != f.id {
			continue
		}
		ran = true
		tbl, err := f.run(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", f.id, err)
		}
		if err := tbl.WriteAllText(out); err != nil {
			return err
		}
		if csv != nil {
			if err := tbl.WriteCSV(csv); err != nil {
				return err
			}
		}
	}
	if *exp == "all" || *exp == "regret" {
		ran = true
		reg, err := experiment.Regret(opts)
		if err != nil {
			return fmt.Errorf("regret: %w", err)
		}
		if err := reg.WriteText(out); err != nil {
			return err
		}
		if csv != nil {
			if err := reg.WriteCSV(csv); err != nil {
				return err
			}
		}
	}
	if *exp == "all" || *exp == "learning" {
		ran = true
		lc, err := experiment.Learning(opts)
		if err != nil {
			return fmt.Errorf("learning: %w", err)
		}
		if err := lc.WriteText(out); err != nil {
			return err
		}
		if csv != nil {
			if err := lc.WriteCSV(csv); err != nil {
				return err
			}
		}
	}
	if *exp == "all" || *exp == "drift" {
		ran = true
		dr, err := experiment.Drift(opts)
		if err != nil {
			return fmt.Errorf("drift: %w", err)
		}
		if err := dr.WriteText(out); err != nil {
			return err
		}
		if csv != nil {
			if err := dr.WriteCSV(csv); err != nil {
				return err
			}
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return nil
}
