// Command arserved is the real-time admission daemon for AR offloading:
// it serves the repo's schedulers (the paper's DynamicRR by default)
// behind an HTTP JSON API, advancing one scheduling slot per wall-clock
// tick against live per-station capacity, checkpointing bandit arm
// statistics and in-flight assignments so a restart resumes learning.
// There is one serving path: a cluster of -shards scheduler shards
// (default 1) behind a request router, whatever the mode.
//
// Usage:
//
//	arserved -addr :8080 -stations 20 -tick 50ms -checkpoint state.json
//	arserved -shards 4 -scheduler ocorp -trace
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
	"math/rand"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux, served only behind -pprof-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mecoffload/internal/bandit"
	"mecoffload/internal/cluster"
	"mecoffload/internal/mec"
	"mecoffload/internal/oracle"
	"mecoffload/internal/prof"
	"mecoffload/internal/rnd"
	"mecoffload/internal/scenario"
	"mecoffload/internal/serve"
	"mecoffload/internal/sim"
	"mecoffload/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "arserved: %v\n", err)
		os.Exit(1)
	}
}

// banditKappa is the arm count a -bandit policy is built with; it
// matches DynamicRR's default threshold discretization.
const banditKappa = 16

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("arserved", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:8080", "HTTP listen address")
		schedName  = fs.String("scheduler", "dynamicrr", "scheduler: dynamicrr, ocorp, greedy, heukkt")
		banditSpec = fs.String("bandit", "", "arm policy for dynamicrr: se, ucb1, sw-ucb[:w], d-ucb[:g], exp3s[:g[,a]], restart:<inner> (empty = se; a restored checkpoint wins)")
		stations   = fs.Int("stations", 20, "number of base stations (generated topology)")
		scenIn     = fs.String("scenario-in", "", "load the topology from this scenario JSON instead of generating one")
		seed       = fs.Int64("seed", 42, "random seed")
		tick       = fs.Duration("tick", 50*time.Millisecond, "wall-clock length of one scheduling slot")
		slotMS     = fs.Float64("slot-ms", mec.DefaultSlotLengthMS, "model slot length in milliseconds")
		shards     = fs.Int("shards", 1, "scheduler shards behind the request router (1 to the station count)")
		ckptPath   = fs.String("checkpoint", "", "checkpoint manifest (restore on start at any shard count, rewrite periodically; per-shard snapshots are written beside it)")
		ckptEvery  = fs.Int("checkpoint-every", 50, "ticks between checkpoints")
		ckptAsync  = fs.Bool("checkpoint-async", true, "write periodic checkpoints on a background goroutine (copy-on-write snapshot off the slot clock); shutdown checkpoints are always synchronous")
		trace      = fs.Bool("trace", false, "print one line per slot and shard (arsim trace format; prefixed [shard k] when -shards > 1)")
		drainAfter = fs.Duration("drain-timeout", 10*time.Second, "max wait for in-flight streams on shutdown")
		replay     = fs.String("replay", "", "replay a trace as a load generator instead of serving HTTP: a workload frame-trace JSON, or (*.ndjson) one request per line with blank lines as slot boundaries")
		replayRate = fs.Int("requests-per-30fps", 1, "replay: requests per second per 30 fps of trace")
		replayDump = fs.String("replay-dump", "", "replay: write per-slot admission decisions as JSON to this file")
		pprofAddr  = fs.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060); empty disables")
		blockRate  = fs.Int("block-profile", 0, "blocking-profile sample threshold in ns for /debug/pprof/block (1 = every event, 0 = off; needs -pprof-addr)")
		mutexFrac  = fs.Int("mutex-profile", 0, "mutex-contention sample fraction for /debug/pprof/mutex (1 = every contended lock, 0 = off; needs -pprof-addr)")

		ringCap    = fs.Int("ring", 0, "batched-ingest ring capacity per shard (0 = default 4096, rounded up to a power of two)")
		stageCap   = fs.Int("stage", 0, "batched-ingest overflow-stage capacity per shard before reward-aware shedding (0 = default 4096)")
		maxPending = fs.Int("max-pending", 0, "pending requests per shard past which a slot stops draining the ingest ring (0 = default 16384)")
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

	// Contention profiles are sampled from process start so an epoch
	// barrier or clock-lock stall is visible the moment the pprof
	// endpoint is scraped — both default off because sampling every
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

	// The daemon only forwards an optional -bandit arm policy. A
	// checkpointed bandit snapshot overrides the policy on restore, so
	// learning resumes rather than restarting.
	var drrOpts sim.DynamicRROptions
	if *banditSpec != "" {
		// Validate the spec up front so a typo fails at startup, then
		// pass the spec (not an instance) so the shards each parse their
		// own policy.
		if _, err := bandit.Parse(*banditSpec, banditKappa, 0); err != nil {
			return err
		}
		drrOpts.Kappa = banditKappa
		drrOpts.PolicySpec = *banditSpec
		drrOpts.PolicySeed = rnd.Derive(*seed, "bandit:"+*banditSpec)
	}

	cfg := cluster.Config{
		Net:             net_,
		Shards:          *shards,
		SchedulerName:   *schedName,
		DynamicRR:       drrOpts,
		SlotLengthMS:    *slotMS,
		Seed:            *seed,
		CheckpointPath:  *ckptPath,
		CheckpointEvery: *ckptEvery,
		AsyncCheckpoint: *ckptAsync,
		RingCapacity:    *ringCap,
		StageCapacity:   *stageCap,
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
	return serveHTTP(c, *addr, *drainAfter, fmt.Sprintf("%s scheduler, %d shards, %d stations",
		*schedName, c.Shards(), net_.NumStations()), out)
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
	case <-c.Done():
		// Every shard loop exited on its own (a drain requested elsewhere).
	}

	// Graceful drain: refuse new work, let streams depart, checkpoint.
	if err := c.Drain(); err != nil && !errors.Is(err, serve.ErrStopped) {
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

// runReplay feeds a trace through the cluster as fast as the scheduler
// runs, drains the tail so every admitted stream departs, stops the
// cluster and prints the run's summary (one format per trace kind, at
// any shard count). An .ndjson trace replays through
// the batched intake (one request per line, blank lines marking slot
// boundaries — the wire format of POST /v1/requests:batch); anything
// else is a workload frame trace (replayFrames).
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
		seconds, st.Accepted, err = replayFrames(c, f, rp)
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
		in, _ := c.MigratedCounts()
		var migrations uint64
		for _, n := range in {
			migrations += n
		}
		fmt.Fprintf(out, "replayed %d ndjson slots across %d shards: accepted=%d badlines=%d admitted=%d shed=%d served=%d evicted=%d expired=%d reward=$%.0f migrations=%d over %d slots\n",
			st.Slots, c.Shards(), st.Accepted, st.BadLines, t.Submitted, t.Shed, t.Served,
			t.Evicted, t.Expired, t.Reward, migrations, c.Slot())
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

// replayFrames turns a captured frame trace into load: every trace
// second maps to 1000/slotMS slots, with a request volume proportional
// to the second's frame rate and a demand distribution pinned to the
// second's scaled pipeline rate. It returns the trace length in seconds
// and the number of requests submitted.
func replayFrames(c *cluster.Cluster, src io.Reader, rp replayParams) (seconds, submitted int, err error) {
	tr, err := workload.ReadTrace(src)
	if err != nil {
		return 0, 0, err
	}
	rates := tr.ScaleToRate(workload.DefaultMinRate, workload.DefaultMaxRate)
	slotsPerSecond := int(1000/rp.slotMS + 0.5)
	if slotsPerSecond < 1 {
		slotsPerSecond = 1
	}
	for s, fps := range tr.FPS {
		n := rp.perThirtyFPS * fps / 30
		if n < 1 {
			n = 1
		}
		for k := 0; k < n; k++ {
			unit := workload.DefaultMinUnitReward +
				rp.rng.Float64()*(workload.DefaultMaxUnitReward-workload.DefaultMinUnitReward)
			spec := serve.RequestSpec{
				AccessStation: submitted % rp.stations,
				Outcomes: []serve.OutcomeSpec{
					{RateMBs: rates[s], Prob: 1, Reward: unit * rates[s]},
				},
			}
			if _, _, err := c.Submit(spec); err != nil {
				return 0, 0, fmt.Errorf("replay second %d: %w", s, err)
			}
			submitted++
		}
		for k := 0; k < slotsPerSecond; k++ {
			if err := c.Tick(); err != nil {
				return 0, 0, err
			}
		}
	}
	// Drain the tail so every admitted stream departs before the summary.
	if err := c.Drain(); err != nil {
		return 0, 0, err
	}
	for c.Alive() {
		if err := c.Tick(); err != nil {
			if errors.Is(err, serve.ErrStopped) {
				break
			}
			return 0, 0, err
		}
	}
	return len(tr.FPS), submitted, nil
}
