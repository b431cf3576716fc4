// Command arsim runs one online simulation of AR request offloading and
// prints a per-slot trace: pending queue depth, admissions, realized
// utilization, and the threshold DynamicRR's bandit currently favors.
// It is the observability tool for the dynamic reward maximization
// problem — mecsim aggregates, arsim shows one run unfolding.
//
// Usage:
//
//	arsim -scheduler dynamicrr -requests 300 -horizon 120 -stations 20
//	arsim -scheduler ocorp -trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mecoffload/internal/core"
	"mecoffload/internal/mec"
	"mecoffload/internal/prof"
	"mecoffload/internal/rnd"
	"mecoffload/internal/scenario"
	"mecoffload/internal/sim"
	"mecoffload/internal/stats"
	"mecoffload/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "arsim: %v\n", err)
		os.Exit(1)
	}
}

// traceScheduler wraps a Scheduler and prints a line per slot.
type traceScheduler struct {
	sim.Scheduler
	out io.Writer
}

func (ts *traceScheduler) Schedule(eng *sim.Engine, res *core.Result, t int, pending []int) ([]int, error) {
	admitted, err := ts.Scheduler.Schedule(eng, res, t, pending)
	if err != nil {
		return nil, err
	}
	d, _ := ts.Scheduler.(*sim.DynamicRR)
	sim.WriteTraceLine(ts.out, t, len(pending), len(admitted), eng.Used(), eng.Net().TotalCapacity(), d)
	return admitted, nil
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("arsim", flag.ContinueOnError)
	var (
		schedName = fs.String("scheduler", "dynamicrr", "scheduler: "+strings.ToLower(strings.Join(sim.OnlineAlgorithms(), ", ")))
		requests  = fs.Int("requests", 300, "number of AR requests")
		stations  = fs.Int("stations", 20, "number of base stations")
		horizon   = fs.Int("horizon", 120, "arrival horizon in slots")
		seed      = fs.Int64("seed", 42, "random seed")
		trace     = fs.Bool("trace", false, "print one line per slot")
		hist      = fs.Bool("hist", false, "print the latency histogram of served requests")
		dumpJSON  = fs.String("dump", "", "write the run trace (decisions + per-slot series) as JSON to this file")
		scenOut   = fs.String("scenario-out", "", "write the generated scenario as JSON to this file")
		scenIn    = fs.String("scenario-in", "", "load the scenario from this JSON file instead of generating one")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = fs.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
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

	var (
		net  *mec.Network
		reqs []*mec.Request
	)
	if *scenIn != "" {
		f, err := os.Open(*scenIn)
		if err != nil {
			return err
		}
		net, reqs, err = scenario.Read(f)
		cerr := f.Close()
		if err != nil {
			return err
		}
		if cerr != nil {
			return cerr
		}
	} else {
		rng := rnd.New(*seed, "scenario")
		var err error
		net, err = mec.RandomNetwork(*stations, 3000, 3600, rng)
		if err != nil {
			return err
		}
		reqs, err = workload.Generate(workload.Config{
			NumRequests: *requests, NumStations: *stations,
			GeometricRates: true, ArrivalHorizon: *horizon,
		}, rng)
		if err != nil {
			return err
		}
	}
	if *scenOut != "" {
		f, err := os.Create(*scenOut)
		if err != nil {
			return err
		}
		werr := scenario.Write(f, net, reqs)
		cerr := f.Close()
		if werr != nil {
			return werr
		}
		if cerr != nil {
			return cerr
		}
	}

	// The -scheduler values are the online algorithms' names in lower case.
	var sched sim.Scheduler
	for _, name := range sim.OnlineAlgorithms() {
		if strings.ToLower(name) == *schedName {
			if sched, err = sim.NewScheduler(name); err != nil {
				return err
			}
		}
	}
	if sched == nil {
		return fmt.Errorf("unknown scheduler %q", *schedName)
	}
	if *trace {
		sched = &traceScheduler{Scheduler: sched, out: out}
	}
	var rec *sim.Recorder
	if *dumpJSON != "" {
		rec = sim.NewRecorder(sched)
		sched = rec
	}

	simHorizon := *horizon + 20
	res, _, err := sim.Simulate(net, reqs, sched, rnd.New(*seed, "engine"), sim.RunOptions{Horizon: simHorizon, Audit: true})
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "\n%s over %d slots: reward=$%.0f served=%d/%d admitted=%d avgLatency=%.1fms runtime=%s\n",
		res.Algorithm, simHorizon, res.TotalReward, res.Served, len(reqs),
		res.Admitted, res.AvgLatencyMS(), res.Runtime.Round(1000000))
	if *hist {
		h, err := stats.NewHistogram(0, 200, 10)
		if err != nil {
			return err
		}
		for _, d := range res.Decisions {
			if d.Served {
				h.Add(d.LatencyMS)
			}
		}
		fmt.Fprintf(out, "\nserved-request latency (ms):\n%s", h.String())
	}
	if *dumpJSON != "" {
		f, err := os.Create(*dumpJSON)
		if err != nil {
			return err
		}
		werr := sim.NewRunTrace(res, rec).WriteJSON(f)
		cerr := f.Close()
		if werr != nil {
			return werr
		}
		if cerr != nil {
			return cerr
		}
	}
	return nil
}
