// Command arserved is the real-time admission daemon for AR offloading:
// it serves the paper's DynamicRR scheduler behind an HTTP JSON API,
// advancing one scheduling slot per wall-clock tick against live
// per-station capacity, checkpointing bandit arm statistics and in-flight
// assignments so a restart resumes learning. The baselines the paper
// compares it with run in arsim and mecsim.
// There is one serving path: a cluster of -shards scheduler shards
// (default 1) behind a request router, whatever the mode.
//
// Usage:
//
//	arserved -addr :8080 -stations 20 -tick 50ms -checkpoint state.json
//	arserved -replay trace.json -requests-per-30fps 1
//	arserved -replay trace.ndjson -shards 2
//
// Endpoints: POST /v1/requests, GET /v1/requests/{id}, /metrics,
// /healthz, /readyz. SIGTERM or SIGINT triggers a graceful drain: intake
// closes, in-flight streams run to departure (bounded by -drain-timeout),
// a final checkpoint is written, and the process exits 0.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux, served only behind -pprof-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mecoffload/internal/cluster"
	"mecoffload/internal/mec"
	"mecoffload/internal/oracle"
	"mecoffload/internal/prof"
	"mecoffload/internal/rnd"
	"mecoffload/internal/scenario"
	"mecoffload/internal/serve"
	"mecoffload/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "arserved: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("arserved", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:8080", "HTTP listen address")
		stations   = fs.Int("stations", 20, "number of base stations (generated topology)")
		scenIn     = fs.String("scenario-in", "", "load the topology from this scenario JSON instead of generating one")
		seed       = fs.Int64("seed", 42, "random seed")
		tick       = fs.Duration("tick", 50*time.Millisecond, "wall-clock length of one scheduling slot")
		slotMS     = fs.Float64("slot-ms", mec.DefaultSlotLengthMS, "model slot length in milliseconds")
		shards     = fs.Int("shards", 1, "scheduler shards behind the request router (1 to the station count)")
		ckptPath   = fs.String("checkpoint", "", "checkpoint manifest, one file holding every shard's snapshot (restore on start at any shard count; rewritten periodically off the slot clock, and synchronously at shutdown)")
		ckptEvery  = fs.Int("checkpoint-every", 50, "ticks between checkpoints")
		trace      = fs.Bool("trace", false, "print one line per slot and shard (arsim trace format; prefixed [shard k] when -shards > 1)")
		drainAfter = fs.Duration("drain-timeout", 10*time.Second, "max wait for in-flight streams on shutdown")
		replay     = fs.String("replay", "", "replay a trace as a load generator instead of serving HTTP: a workload frame-trace JSON, or (*.ndjson) one request per line with blank lines as slot boundaries")
		replayRate = fs.Int("requests-per-30fps", 1, "replay: requests per second per 30 fps of trace")
		replayDump = fs.String("replay-dump", "", "replay: write per-slot admission decisions as JSON to this file")
		pprofAddr  = fs.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060); empty disables")
		blockRate  = fs.Int("block-profile", 0, "blocking-profile sample threshold in ns for /debug/pprof/block (1 = every event, 0 = off; needs -pprof-addr)")
		mutexFrac  = fs.Int("mutex-profile", 0, "mutex-contention sample fraction for /debug/pprof/mutex (1 = every contended lock, 0 = off; needs -pprof-addr)")

		doorCap    = fs.Int("door", 0, "requests per shard waiting at the door for the planner before reward-aware shedding (0 = default 8192)")
		maxPending = fs.Int("max-pending", 0, "pending requests per shard past which a slot stops draining the door (0 = default 16384)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Rejected, not clamped: a non-positive interval would select the
	// cluster's manual clock, and a daemon on it accepts requests forever
	// and never decides one. Only a replay drives the clock itself.
	if *replay == "" && *tick <= 0 {
		return fmt.Errorf("-tick %v: want a positive slot interval", *tick)
	}
	// Also rejected, not clamped or ignored: each of these is a typo the
	// daemon would otherwise run with quietly changed.
	switch {
	case *ckptEvery < 1:
		return fmt.Errorf("-checkpoint-every %d: want at least 1 tick", *ckptEvery)
	case !(*slotMS > 0) || math.IsInf(*slotMS, 1):
		return fmt.Errorf("-slot-ms %v: want a positive, finite model slot length", *slotMS)
	case *doorCap < 0:
		return fmt.Errorf("-door %d: want 0 (the default) or a positive capacity", *doorCap)
	case *maxPending < 0:
		return fmt.Errorf("-max-pending %d: want 0 (the default) or a positive bound", *maxPending)
	case *blockRate > 0 && *pprofAddr == "":
		return fmt.Errorf("-block-profile %d: needs -pprof-addr, the only reader of the samples", *blockRate)
	case *mutexFrac > 0 && *pprofAddr == "":
		return fmt.Errorf("-mutex-profile %d: needs -pprof-addr, the only reader of the samples", *mutexFrac)
	}

	var net_ *mec.Network
	if *scenIn != "" {
		f, err := os.Open(*scenIn)
		if err != nil {
			return err
		}
		n, _, rerr := scenario.Read(f)
		cerr := f.Close()
		if rerr != nil {
			return rerr
		}
		if cerr != nil {
			return cerr
		}
		net_ = n
	} else {
		n, err := mec.RandomNetwork(*stations, 3000, 3600, rnd.New(*seed, "topology"))
		if err != nil {
			return err
		}
		net_ = n
	}
	// Rejected, not clamped: a shard count the topology cannot honour is a
	// typo, and a daemon that quietly ran a different layout would hide it.
	if *shards < 1 || *shards > net_.NumStations() {
		return fmt.Errorf("-shards %d: want 1 to %d (at most one shard per station)", *shards, net_.NumStations())
	}

	// Contention profiles are sampled from process start so a door or
	// clock-lock stall is visible the moment the pprof endpoint is
	// scraped — both default off because sampling every
	// blocking event costs on the hot path.
	prof.EnableContentionProfiles(*blockRate, *mutexFrac)

	if *pprofAddr != "" {
		// Opt-in profiling endpoint, on its own listener so the debug
		// surface never shares a port with the public API.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		psrv := &http.Server{Handler: http.DefaultServeMux}
		go func() {
			if err := psrv.Serve(pln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(out, "arserved: pprof server: %v\n", err)
			}
		}()
		defer psrv.Close()
		fmt.Fprintf(out, "arserved: pprof on http://%s/debug/pprof/\n", pln.Addr())
	}

	cfg := cluster.Config{
		Net:             net_,
		Shards:          *shards,
		SlotLengthMS:    *slotMS,
		Seed:            *seed,
		CheckpointPath:  *ckptPath,
		CheckpointEvery: *ckptEvery,
		DoorCapacity:    *doorCap,
		MaxPending:      *maxPending,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(out, format+"\n", a...)
		},
	}
	if *trace {
		cfg.TraceWriter = out
	}
	// Replay keeps the manual clock (model time advances as fast as the
	// scheduler runs); serving runs the wall clock.
	var dump *oracle.ReplayDump
	if *replay == "" {
		cfg.TickInterval = *tick
	} else if *replayDump != "" {
		// The observer runs under the cluster clock, which the replay
		// drives from this goroutine, so the dump needs no lock.
		dump = &oracle.ReplayDump{}
		cfg.SlotObserver = cluster.DumpObserver(dump)
	}

	c, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	c.Start()
	// Stop is idempotent: the modes call it themselves where its error (a
	// failed final checkpoint) is the run's result; this covers the rest.
	defer func() { _ = c.Stop() }()
	if *replay != "" {
		return runReplay(c, *replay, replayParams{
			stations:     net_.NumStations(),
			slotMS:       *slotMS,
			perThirtyFPS: *replayRate,
			rng:          rnd.New(*seed, "replay"),
			dump:         dump,
			dumpPath:     *replayDump,
		}, out)
	}
	return serveHTTP(c, *addr, *drainAfter, fmt.Sprintf("DynamicRR, %d shards, %d stations",
		c.Shards(), net_.NumStations()), out)
}

// serveHTTP is the daemon lifecycle: listen, announce, wait for SIGTERM
// or SIGINT, drain with a bounded wait, write the final checkpoint
// (Stop), shut the listener down, exit 0.
func serveHTTP(c *cluster.Cluster, addr string, drainAfter time.Duration, what string, out io.Writer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: cluster.Handler(c)}
	httpDone := make(chan error, 1)
	go func() { httpDone <- srv.Serve(ln) }()

	// Arm signal handling before announcing the address, so anything that
	// reacts to the announcement can already deliver SIGTERM safely.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigs)
	fmt.Fprintf(out, "arserved: %s, listening on %s\n", what, ln.Addr())

	select {
	case sig := <-sigs:
		fmt.Fprintf(out, "arserved: %v, draining\n", sig)
	case err := <-httpDone:
		return fmt.Errorf("http server: %w", err)
	}

	// Graceful drain: refuse new work, let streams depart, checkpoint.
	if err := c.Drain(); err != nil {
		fmt.Fprintf(out, "arserved: drain: %v\n", err)
	}
	select {
	case <-c.Done():
		fmt.Fprintln(out, "arserved: drained cleanly")
	case <-time.After(drainAfter):
		fmt.Fprintf(out, "arserved: drain timeout after %v, stopping with streams in flight\n", drainAfter)
	}
	if err := c.Stop(); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// replayParams are the knobs of one -replay run; the frame-trace fields
// are unused for NDJSON traces, which carry their own specs.
type replayParams struct {
	stations     int
	slotMS       float64
	perThirtyFPS int
	rng          *rand.Rand
	dump         *oracle.ReplayDump // non-nil with -replay-dump
	dumpPath     string
}

// runReplay feeds a trace through the cluster's replay loop
// (cluster.Replay) as fast as the scheduler runs, which drains the tail
// so every admitted stream departs, then stops the cluster and prints the
// run's summary (one format per trace kind, at any shard count). An
// .ndjson trace is one request per line, blank lines marking slot
// boundaries — the wire format of POST /v1/requests:batch; anything else
// is a workload frame trace (replayFrames).
func runReplay(c *cluster.Cluster, path string, rp replayParams, out io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	var (
		st      cluster.ReplayStats
		seconds int
		ndjson  = strings.HasSuffix(path, ".ndjson")
	)
	if ndjson {
		badShown := 0
		st, err = cluster.ReplayNDJSON(c, f, func(line int, msg string) {
			if badShown < 10 {
				fmt.Fprintf(out, "replay: line %d: %s\n", line, msg)
			}
			badShown++
		})
	} else {
		var tr *workload.FrameTrace
		if tr, err = workload.ReadTrace(f); err == nil {
			seconds = len(tr.FPS)
			st.Accepted, err = cluster.Replay(c, replayFrames(tr, rp), nil)
		}
	}
	_ = f.Close()
	if err != nil {
		return err
	}
	if err := c.Stop(); err != nil {
		return err
	}
	<-c.Done()

	t := c.Totals()
	if ndjson {
		fmt.Fprintf(out, "replayed %d ndjson slots across %d shards: accepted=%d badlines=%d admitted=%d shed=%d served=%d evicted=%d expired=%d reward=$%.0f over %d slots\n",
			st.Slots, c.Shards(), st.Accepted, st.BadLines, t.Submitted, t.Shed, t.Served,
			t.Evicted, t.Expired, t.Reward, c.Slot())
	} else {
		fmt.Fprintf(out, "replayed %d trace seconds: submitted=%d served=%d evicted=%d expired=%d reward=$%.0f over %d slots\n",
			seconds, st.Accepted, t.Served, t.Evicted, t.Expired, t.Reward, c.Slot())
	}
	if rp.dump != nil {
		rp.dump.Submitted = st.Accepted
		data, err := json.MarshalIndent(rp.dump, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(rp.dumpPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// replayFrames turns a captured frame trace into the replay's slot
// groups: every trace second is one group, ticked for 1000/slotMS slots,
// with a request volume proportional to the second's frame rate and a
// demand distribution pinned to the second's scaled pipeline rate.
func replayFrames(tr *workload.FrameTrace, rp replayParams) func(cluster.ReplayGroup) error {
	rates := tr.ScaleToRate(workload.DefaultMinRate, workload.DefaultMaxRate)
	slotsPerSecond := max(1, int(1000/rp.slotMS+0.5))
	return func(play cluster.ReplayGroup) error {
		var specs []serve.RequestSpec // every second's group in turn
		made := 0
		for s, fps := range tr.FPS {
			specs = specs[:0]
			for n := max(1, rp.perThirtyFPS*fps/30); n > 0; n-- {
				unit := workload.DefaultMinUnitReward +
					rp.rng.Float64()*(workload.DefaultMaxUnitReward-workload.DefaultMinUnitReward)
				specs = append(specs, serve.RequestSpec{
					AccessStation: made % rp.stations,
					Outcomes: []serve.OutcomeSpec{
						{RateMBs: rates[s], Prob: 1, Reward: unit * rates[s]},
					},
				})
				made++
			}
			// Flush ignores MaxPending: the planner holds the whole second
			// before its first slot.
			if err := play(specs, slotsPerSecond); err != nil {
				return fmt.Errorf("replay second %d: %w", s, err)
			}
		}
		return nil
	}
}
