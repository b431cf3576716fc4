// Command bench is the repository's one end-to-end benchmark: it drives
// arserved's serving path — cluster.New + cluster.Handler behind an
// httptest server, one closed-loop client on one keep-alive connection —
// through a slot cycle (POST batch, Flush, Tick, GET statuses) on four
// named workloads, prints every metric by name with its unit, and checks
// that the outputs are correct. README.md defines every metric and
// workload; BENCHMARK.json at the repository root is the contract a later
// change is measured against.
//
//	go run ./bench                         all four workloads, tracing off
//	go run ./bench -workload churn_mesh    one workload
//	go run ./bench -trace 1                add the per-layer twin-ladder run
//	go run ./bench -repeat 10              spreads over ten seeds, a process each
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// slotBudgetMS is the paper's contract: one decision per 50 ms slot.
const slotBudgetMS = 50.0

type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen; per-layer metrics carry none.
	bound float64
}

// endToEndMetrics are measured with tracing off. README.md defines each
// and records the run-to-run spreads the bounds were sized from: on the
// 2-vCPU sandbox every wall-clock figure, speed-corrected (calib.go),
// still moves 3-15% between identical runs, so those carry the widest
// bound the contract allows, while the figures that repeat (reward,
// acceptance, allocation, live heap) carry tight ones. The 99th
// percentiles move 17-35% there, and the slot's 90th percentile up to 20%
// on ingest_flood, and cannot hold any allowed bound: they are reported
// beside the per-layer metrics (timed.*), and the bounded tail figure is
// the cycle's 90th percentile, which contains the slot.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"slot_ms_p50", "ms", "lower", 0.25},
	{"cycle_ms_p50", "ms", "lower", 0.25},
	{"cycle_ms_p90", "ms", "lower", 0.25},
	{"post_ms_p50", "ms", "lower", 0.25},
	{"decided_per_s", "req/s", "higher", 0.25},
	{"reward_per_slot", "usd/slot", "higher", 0.05},
	{"accept_ratio", "ratio", "higher", 0.06},
	{"alloc_kb_per_req", "KB/req", "lower", 0.10},
	{"heap_mb_end", "MB", "lower", 0.10},
}

// runOptions are the command's arguments, plus the two run-shape
// constants the smoke test shrinks.
type runOptions struct {
	seed    int64
	seconds int
	slots   int // overrides seconds when > 0 (the smoke test's short run)
	trace   bool
	// warmup is the untimed slot-cycle count every rung runs first
	// (warmupSlots); rounds is how often an untraced run sets the system
	// up (setupRounds).
	warmup, rounds int
	// outDir receives everything a run writes: a scratch directory
	// removed when the run ends, and the traced run's span file.
	outDir string
}

func (o runOptions) slotsFor(w *workload) int {
	if o.slots > 0 {
		return o.slots
	}
	return w.timedSlots(o.seconds)
}

// result is what one invocation on one workload reports.
type result struct {
	timed  *timedResult
	traced *tracedResult // nil with tracing off
}

// correct reports whether every output check passed.
func (r *result) correct() bool {
	return r.timed.checkErr == nil && (r.traced == nil || r.traced.checkErr == nil)
}

// runWorkload runs one workload once: the timed run always, the traced
// ladder when asked.
func runWorkload(w *workload, o runOptions) (*result, error) {
	slots := o.slotsFor(w)
	if slots < 1 {
		return nil, fmt.Errorf("%s: no timed slots (seconds=%d)", w.name, o.seconds)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(o.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	// setup_s is an end-to-end metric: only the untraced invocation pays
	// for the extra set-up rounds its median needs.
	rounds := o.rounds
	if o.trace {
		rounds = 1
	}
	timed, err := runTimed(w, o.seed, o.warmup, slots, rounds, scratch)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res := &result{timed: timed}
	if o.trace {
		if res.traced, err = runTraced(w, o.seed, o.warmup, slots, scratch, o.outDir, timed); err != nil {
			return nil, fmt.Errorf("%s (traced): %w", w.name, err)
		}
	}
	return res, nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonLine is the machine-readable result: the end-to-end metrics with
// tracing off, the per-layer metrics with tracing on.
func (r *result) jsonLine() ([]byte, error) {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{
		Correct:   r.correct(),
		Attempted: r.timed.attempted,
		Failed:    r.timed.failed,
		Metrics:   map[string]jsonMetric{},
	}
	defs, values := endToEndMetrics, r.timed.metrics
	if r.traced != nil {
		defs, values = perLayerMetrics, r.traced.metrics
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s missing or not finite", d.name)
		}
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	return json.Marshal(out)
}

// print writes the human-readable report.
func (r *result) print(out io.Writer) {
	t := r.timed
	fmt.Fprintf(out, "\n== %s  seed=%d  timed slots=%d (+%d warm-up)  shards=%d\n",
		t.w.name, t.seed, t.slots, t.warmup, t.w.shards)
	for _, d := range endToEndMetrics {
		fmt.Fprintf(out, "  %-22s %14.4f %-7s (%s is better, bound %g%%)\n",
			d.name, t.metrics[d.name], d.unit, d.better, 100*d.bound)
	}
	fmt.Fprintf(out, "  as measured, at speed factor %.4f: slot p50 %.4f ms, p90 %.4f ms, p99 %.4f ms; cycle p50 %.4f ms, p99 %.4f ms\n",
		t.timed["timed.speed_factor"], t.timed["timed.slot_ms_p50"], t.timed["timed.slot_ms_p90"], t.timed["timed.slot_ms_p99"],
		t.timed["timed.cycle_ms_p50"], t.timed["timed.cycle_ms_p99"])
	verdict := "within"
	if t.timed["timed.slot_ms_p99"] > slotBudgetMS {
		verdict = "OVER"
	}
	fmt.Fprintf(out, "  slot budget: measured p99 %.3f ms is %s the %g ms slot\n", t.timed["timed.slot_ms_p99"], verdict, slotBudgetMS)
	fmt.Fprintf(out, "  fail_ratio   %d failed of %d attempted operations = %g\n",
		t.failed, t.attempted, ratio(float64(t.failed), float64(t.attempted)))
	if t.firstFailure != "" {
		fmt.Fprintf(out, "  first failure: %s\n", t.firstFailure)
	}
	fmt.Fprintf(out, "  decision digest %016x over %d slots\n", t.dec.fold(), len(t.dec.digests))
	if t.checkErr != nil {
		fmt.Fprintf(out, "  OUTPUT CHECK FAILED: %v\n", t.checkErr)
	} else {
		fmt.Fprintf(out, "  output check: ok (every accepted id terminal; accepted = admitted + expired + shed)\n")
	}
	if r.traced != nil {
		r.traced.print(out)
	}
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives — the acceptance driver's
// measure. Fewer than two values have no spread.
func quartileSpread(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		return 0
	}
	q := func(i int) float64 {
		j := i * (m + 1) / 4
		delta := float64(i*(m+1) - j*4)
		if j < 1 {
			j, delta = 1, 0
		}
		if j > m-1 {
			j, delta = m-1, 4
		}
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(q(3)-q(1), math.Abs(median(s)))
}

// repeatRuns measures every workload of the set n times, on seeds
// seed..seed+n-1, and prints the spread of each end-to-end metric. Each
// run is a fresh process of this same program, as the acceptance driver's
// runs are: repetitions inside one process inherit each other's heap and
// read slower run after run.
func repeatRuns(out io.Writer, set []*workload, n int, seed int64, seconds int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range set {
		runs := make([]map[string]float64, 0, n)
		for i := 0; i < n; i++ {
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed+int64(i), 10),
				"-seconds", strconv.Itoa(seconds), "-trace", "0")
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed+int64(i), err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var line struct {
				Correct bool                  `json:"correct"`
				Failed  int                   `json:"failed"`
				Metrics map[string]jsonMetric `json:"metrics"`
			}
			if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", w.name, seed+int64(i), err)
			}
			values := make(map[string]float64, len(line.Metrics))
			for name, m := range line.Metrics {
				values[name] = m.Value
			}
			fmt.Fprintf(out, "%s seed %d: correct=%v failed=%d slot_ms_p50=%.4f cycle_ms_p50=%.4f reward_per_slot=%.4f\n",
				w.name, seed+int64(i), line.Correct, line.Failed, values["slot_ms_p50"], values["cycle_ms_p50"], values["reward_per_slot"])
			runs = append(runs, values)
		}
		printSpreads(out, w, runs)
	}
	return nil
}

// printSpreads summarises repeated runs: per end-to-end metric, min,
// median, max and whether the quartile spread holds a third of the bound
// (the steadiness the acceptance driver wants) or at least the bound.
func printSpreads(out io.Writer, w *workload, runs []map[string]float64) {
	fmt.Fprintf(out, "\n== %s: spread over %d runs\n", w.name, len(runs))
	for _, d := range endToEndMetrics {
		var vs []float64
		for _, r := range runs {
			vs = append(vs, r[d.name])
		}
		sort.Float64s(vs)
		spread := quartileSpread(vs)
		verdict := "steady"
		switch {
		case spread > d.bound:
			verdict = "OUTSIDE BOUND"
		case spread > d.bound/3:
			verdict = "inside bound, above a third of it"
		}
		fmt.Fprintf(out, "  %-18s min %12.4f  median %12.4f  max %12.4f %-7s IQR/median %6.2f%% of bound %4.1f%%: %s\n",
			d.name, vs[0], median(vs), vs[len(vs)-1], d.unit, 100*spread, 100*d.bound, verdict)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run (default: all four)")
		seed    = fs.Int64("seed", 1, "seed of the arrival trace, the status sample and cluster.Config.Seed")
		seconds = fs.Int("seconds", defaultSeconds, "run length; converted to a fixed slot count per workload")
		trace   = fs.Int("trace", 0, "1 adds the traced twin-ladder run and reports the per-layer metrics")
		repeat  = fs.Int("repeat", 1, "run N fresh processes on seeds seed..seed+N-1 and report the spread of every end-to-end metric")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace takes 0 or 1")
	}
	set := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		set = []*workload{w}
	}
	// Everything the benchmark writes stays under its own directory.
	opts := runOptions{
		seconds: *seconds, trace: *trace == 1,
		warmup: warmupSlots, rounds: setupRounds,
		outDir: filepath.Join("bench", "out"),
	}

	if *repeat > 1 {
		if opts.trace {
			return fmt.Errorf("-repeat measures the end-to-end metrics; run -trace 1 on its own")
		}
		return repeatRuns(out, set, *repeat, *seed, *seconds)
	}
	opts.seed = *seed

	wrong := 0
	for _, w := range set {
		res, err := runWorkload(w, opts)
		if err != nil {
			return err
		}
		res.print(out)
		if !res.correct() {
			wrong++
		}
		line, err := res.jsonLine()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", line)
	}
	if wrong > 0 {
		return fmt.Errorf("%d workload(s) failed the output check", wrong)
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}
