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
//	arsim -replay trace.json -requests-per-30fps 1 -replay-dump decisions.json
//
// Replay mode feeds a captured frame trace through the oracle's golden
// replay (the bare engine equivalent of arserved -replay) so offline and
// daemon runs of the same trace and seed are diffable decision for
// decision.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"mecoffload/internal/bandit"
	"mecoffload/internal/core"
	"mecoffload/internal/mec"
	"mecoffload/internal/oracle"
	"mecoffload/internal/prof"
	"mecoffload/internal/rnd"
	"mecoffload/internal/scenario"
	"mecoffload/internal/sim"
	"mecoffload/internal/stats"
	"mecoffload/internal/workload"
)

// banditKappa is the arm count a -bandit policy is built with; it
// matches DynamicRR's default threshold discretization.
const banditKappa = 16

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
	used := 0.0
	for _, u := range eng.Used() {
		used += u
	}
	total := eng.Net().TotalCapacity()
	line := fmt.Sprintf("slot %4d  pending %3d  admitted %3d  utilization %5.1f%%",
		t, len(pending), len(admitted), 100*used/total)
	if d, ok := ts.Scheduler.(*sim.DynamicRR); ok && d.Bandit() != nil {
		if best, ok := d.Bandit().Policy().(interface{ BestArm() int }); ok {
			line += fmt.Sprintf("  threshold %4.0f MHz", d.Bandit().Value(best.BestArm()))
		}
	}
	fmt.Fprintln(ts.out, line)
	return admitted, nil
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("arsim", flag.ContinueOnError)
	var (
		schedName  = fs.String("scheduler", "dynamicrr", "scheduler: dynamicrr, ocorp, greedy, heukkt")
		banditSpec = fs.String("bandit", "", "arm policy for dynamicrr: se, ucb1, sw-ucb[:w], d-ucb[:g], exp3s[:g[,a]], restart:<inner> (empty = se)")
		requests   = fs.Int("requests", 300, "number of AR requests")
		stations   = fs.Int("stations", 20, "number of base stations")
		horizon    = fs.Int("horizon", 120, "arrival horizon in slots")
		seed       = fs.Int64("seed", 42, "random seed")
		trace      = fs.Bool("trace", false, "print one line per slot")
		hist       = fs.Bool("hist", false, "print the latency histogram of served requests")
		dumpJSON   = fs.String("dump", "", "write the run trace (decisions + per-slot series) as JSON to this file")
		scenOut    = fs.String("scenario-out", "", "write the generated scenario as JSON to this file")
		scenIn     = fs.String("scenario-in", "", "load the scenario from this JSON file instead of generating one")
		replay     = fs.String("replay", "", "replay a workload trace JSON through the golden engine instead of simulating")
		replayRate = fs.Int("requests-per-30fps", 1, "replay: requests per second per 30 fps of trace")
		replayDump = fs.String("replay-dump", "", "replay: write per-slot admission decisions as JSON to this file")
		slotMS     = fs.Float64("slot-ms", mec.DefaultSlotLengthMS, "replay: model slot length in milliseconds")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = fs.String("memprofile", "", "write an allocation profile to this file at exit")
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

	if *replay != "" {
		return runReplayGolden(*replay, *stations, *seed, *slotMS, *replayRate, *replayDump, out)
	}

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

	var sched sim.Scheduler
	switch *schedName {
	case "dynamicrr":
		var dopts sim.DynamicRROptions
		if *banditSpec != "" {
			pol, err := bandit.Parse(*banditSpec, banditKappa, rnd.Derive(*seed, "bandit:"+*banditSpec))
			if err != nil {
				return err
			}
			dopts.Kappa = banditKappa
			dopts.Policy = pol
		}
		d, err := sim.NewDynamicRR(dopts)
		if err != nil {
			return err
		}
		sched = d
	case "ocorp":
		sched = &sim.OnlineOCORP{}
	case "greedy":
		sched = &sim.OnlineGreedy{}
	case "heukkt":
		sched = &sim.OnlineHeuKKT{}
	default:
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
	eng, err := sim.NewEngine(net, reqs, rnd.New(*seed, "engine"), sim.Config{Horizon: simHorizon})
	if err != nil {
		return err
	}
	res, err := eng.Run(sched)
	if err != nil {
		return err
	}
	if err := sim.AuditTimeline(net, reqs, res, simHorizon); err != nil {
		return fmt.Errorf("audit: %w", err)
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

// runReplayGolden replays a frame trace through oracle.FrameReplay with
// the same topology seed label ("topology") arserved uses, so the two
// commands are decision-for-decision comparable on identical flags.
func runReplayGolden(path string, stations int, seed int64, slotMS float64, perThirtyFPS int, dumpPath string, out io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	tr, rerr := workload.ReadTrace(f)
	cerr := f.Close()
	if rerr != nil {
		return rerr
	}
	if cerr != nil {
		return cerr
	}
	net, err := mec.RandomNetwork(stations, 3000, 3600, rnd.New(seed, "topology"))
	if err != nil {
		return err
	}
	dump, err := oracle.FrameReplay(net, tr, seed, slotMS, perThirtyFPS)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "replayed %d trace seconds: submitted=%d reward=$%.0f over %d admitting slots\n",
		len(tr.FPS), dump.Submitted, dump.TotalReward, len(dump.Slots))
	if dumpPath != "" {
		data, err := json.MarshalIndent(dump, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(dumpPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
