package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"mecoffload/internal/cluster"
	"mecoffload/internal/core"
	"mecoffload/internal/mec"
	"mecoffload/internal/oracle"
	"mecoffload/internal/serve"
	"mecoffload/internal/sim"
)

// span is one timed call into a layer. Spans of one slot share its slot
// number; parent names the span that causes this one in the real serving
// path (the ladder times them on separate twins, so a child does not lie
// inside its parent's interval — only its duration is subtracted).
type span struct {
	Name    string `json:"name"`
	Slot    int    `json:"slot"`
	StartNS int64  `json:"start"`
	EndNS   int64  `json:"end"`
	Parent  string `json:"parent,omitempty"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing: the timed run passes nil, so tracing is off there.
type spanLog struct {
	epoch time.Time
	spans []span
}

func (l *spanLog) add(name, parent string, slot int, start, end time.Time) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{
		Name: name, Slot: slot, Parent: parent,
		StartNS: start.Sub(l.epoch).Nanoseconds(), EndNS: end.Sub(l.epoch).Nanoseconds(),
	})
}

// decisions is what one cluster's SlotObserver saw: per slot, a digest of
// (slot, admitted ids, reward) and the reward itself. Two runs of one
// seed must agree on every entry.
type decisions struct {
	digests  []uint64
	rewards  []float64
	admitted []int
}

func (d *decisions) observe(slot int, admitted []uint64, reward float64) {
	h := newDigest()
	h.add(uint64(slot))
	for _, id := range admitted {
		h.add(id)
	}
	h.add(math.Float64bits(reward))
	d.digests = append(d.digests, uint64(h))
	d.rewards = append(d.rewards, reward)
	d.admitted = append(d.admitted, len(admitted))
}

// fold collapses the whole decision stream into one printable digest.
func (d *decisions) fold() uint64 {
	h := newDigest()
	for _, v := range d.digests {
		h.add(v)
	}
	return uint64(h)
}

// digest is FNV-1a over 64-bit words, little-endian byte order. It is a
// plain value because observe runs inside the timed Tick: hash/fnv would
// allocate a hasher per slot there.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (h *digest) add(v uint64) {
	for i := 0; i < 8; i++ {
		*h = (*h ^ digest(v&0xff)) * 1099511628211
		v >>= 8
	}
}

// firstDivergence returns the first slot at which two decision streams
// differ over their common prefix, or -1.
func firstDivergence(a, b *decisions) int {
	n := len(a.digests)
	if len(b.digests) < n {
		n = len(b.digests)
	}
	for t := 0; t < n; t++ {
		if a.digests[t] != b.digests[t] {
			return t
		}
	}
	return -1
}

// violations collects oracle.EngineChecker failures; the checker runs on
// shard goroutines.
type violations struct {
	mu    sync.Mutex
	first error
	count int
}

func (v *violations) checker() sim.StepChecker {
	check := oracle.EngineChecker()
	return func(e *sim.Engine, res *core.Result, rep sim.SlotReport, info sim.StepInfo) error {
		err := check(e, res, rep, info)
		if err != nil {
			v.mu.Lock()
			if v.first == nil {
				v.first = err
			}
			v.count++
			v.mu.Unlock()
		}
		return err
	}
}

// The cluster clock's two cadences: checkpointEvery is arserved's
// -checkpoint-every default, which the benchmark passes; migrationEvery
// is cluster.New's unexported MigrationEvery default, which it does not
// set and only mirrors to tell sweep slots from plain ones.
const (
	checkpointEvery = 50
	migrationEvery  = 4
)

// clusterConfig builds the cluster exactly as `arserved -cluster-shards N`
// with no other flag builds it. Every scheduler, ingest and migration
// field stays zero on purpose: a later change of a default must move the
// benchmark's numbers.
func clusterConfig(w *workload, net *mec.Network, seed int64, ckptDir string) cluster.Config {
	cfg := cluster.Config{Net: net, Shards: w.shards, Seed: seed}
	if w.checkpoint {
		cfg.CheckpointPath = filepath.Join(ckptDir, "cluster.json")
		cfg.CheckpointEvery = checkpointEvery
		cfg.AsyncCheckpoint = true
	}
	return cfg
}

// httpRung is a cluster behind an httptest server plus the one closed-loop
// client that drives it: the path the timed run measures, and the top
// rung of the traced ladder.
type httpRung struct {
	w     *workload
	tr    *arrivalTrace
	cl    *cluster.Cluster
	srv   *httptest.Server
	cli   *http.Client
	spans *spanLog
	dec   decisions
	viol  violations
	buf   bytes.Buffer

	// ids holds every accepted global id, in submission order.
	ids []uint64

	// Per-slot samples, appended by cycle.
	slotMS, cycleMS, postMS, statusUS, metricsMS []float64

	// Operation accounting (see README "failures").
	attempted, failed int
	firstFailure      string
}

// batchReply is the part of the batch endpoint's reply the client reads.
type batchReply struct {
	Shed   int               `json:"shed"`
	IDs    []uint64          `json:"ids"`
	Errors []serve.LineError `json:"errors"`
}

// newHTTPRung builds the cluster and its server. A non-nil span log makes
// it the traced twin: it records spans and installs the oracle's step
// checker, which the timed run never does.
func newHTTPRung(w *workload, net *mec.Network, tr *arrivalTrace, seed int64, scratch string, spans *spanLog) (*httpRung, error) {
	r := &httpRung{w: w, tr: tr, spans: spans, ids: make([]uint64, 0, tr.total)}
	dir, err := os.MkdirTemp(scratch, "ckpt-")
	if err != nil {
		return nil, err
	}
	cfg := clusterConfig(w, net, seed, dir)
	cfg.SlotObserver = r.dec.observe
	if spans != nil {
		cfg.StepChecker = r.viol.checker()
	}
	if r.cl, err = cluster.New(cfg); err != nil {
		return nil, err
	}
	r.cl.Start()
	r.srv = httptest.NewServer(cluster.Handler(r.cl))
	r.cli = r.srv.Client()
	return r, nil
}

func (r *httpRung) close() {
	r.srv.Close()
	_ = r.cl.Stop() // a failed final manifest only matters to a restart
	r.cl.WaitCheckpoints()
}

// resetSamples drops the warm-up's samples.
func (r *httpRung) resetSamples() {
	r.slotMS, r.cycleMS, r.postMS = r.slotMS[:0], r.cycleMS[:0], r.postMS[:0]
	r.statusUS, r.metricsMS = r.statusUS[:0], r.metricsMS[:0]
}

func (r *httpRung) fail(n int, format string, args ...any) {
	r.failed += n
	if r.firstFailure == "" {
		r.firstFailure = fmt.Sprintf(format, args...)
	}
}

// do sends one request on the keep-alive connection and leaves the whole
// response body in r.buf.
func (r *httpRung) do(method, path string, body []byte) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, r.srv.URL+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/x-ndjson")
	}
	resp, err := r.cli.Do(req)
	if err != nil {
		return 0, err
	}
	r.buf.Reset()
	_, err = r.buf.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, err
}

// cycle runs slot t: POST the slot's arrivals, Flush, Tick, then GET the
// sampled ids (and /metrics on the workload's cadence). Failed operations
// are counted, not fatal; an error return means the clock itself broke.
func (r *httpRung) cycle(t int) error {
	n := r.tr.counts[t]
	var batch batchReply
	start := time.Now()
	if n > 0 {
		r.attempted += n
		code, err := r.do(http.MethodPost, "/v1/requests:batch", r.tr.bodies[t])
		posted := time.Now()
		r.postMS = append(r.postMS, ms(posted.Sub(start)))
		r.spans.add("http.post", "http.cycle", t, start, posted)
		switch {
		case err != nil:
			r.fail(n, "slot %d: POST: %v", t, err)
		case code != http.StatusOK:
			r.fail(n, "slot %d: POST status %d: %s", t, code, bytes.TrimSpace(r.buf.Bytes()))
		default:
			if err := json.Unmarshal(r.buf.Bytes(), &batch); err != nil {
				r.fail(n, "slot %d: POST reply: %v", t, err)
				break
			}
			if bad := n - len(batch.IDs) + batch.Shed; bad > 0 {
				r.fail(bad, "slot %d: %d line errors, %d shed", t, len(batch.Errors), batch.Shed)
			}
			r.ids = append(r.ids, batch.IDs...)
		}
	}
	if err := r.cl.Flush(); err != nil {
		return fmt.Errorf("slot %d: flush: %w", t, err)
	}
	tick := time.Now()
	err := r.cl.Tick()
	ticked := time.Now()
	if err != nil {
		return fmt.Errorf("slot %d: tick: %w", t, err)
	}
	r.slotMS = append(r.slotMS, ms(ticked.Sub(tick)))
	if n == 0 {
		return nil
	}
	for _, i := range r.tr.sample[t] {
		if i >= len(batch.IDs) {
			continue // its line failed and is already counted
		}
		r.attempted++
		id := batch.IDs[i]
		g0 := time.Now()
		code, err := r.do(http.MethodGet, "/v1/requests/"+strconv.FormatUint(id, 10), nil)
		r.statusUS = append(r.statusUS, us(time.Since(g0)))
		var rec serve.RequestRecord
		switch {
		case err != nil:
			r.fail(1, "slot %d: GET %d: %v", t, id, err)
		case code != http.StatusOK:
			r.fail(1, "slot %d: GET %d status %d", t, id, code)
		case json.Unmarshal(r.buf.Bytes(), &rec) != nil || rec.ID != id:
			r.fail(1, "slot %d: GET %d returned a malformed record", t, id)
		}
	}
	polled := time.Now()
	r.spans.add("http.status", "http.cycle", t, ticked, polled)
	if r.w.metricsEvery > 0 && t%r.w.metricsEvery == 0 {
		if err := r.scrape(t); err != nil {
			return err
		}
	}
	end := time.Now()
	r.cycleMS = append(r.cycleMS, ms(end.Sub(start)))
	r.spans.add("http.cycle", "", t, start, end)
	return nil
}

// scrape is one GET /metrics.
func (r *httpRung) scrape(t int) error {
	m0 := time.Now()
	code, err := r.do(http.MethodGet, "/metrics", nil)
	m1 := time.Now()
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("slot %d: GET /metrics: status %d, %v", t, code, err)
	}
	r.metricsMS = append(r.metricsMS, ms(m1.Sub(m0)))
	r.spans.add("http.metrics", "http.cycle", t, m0, m1)
	return nil
}

// clusterTotals are the cluster's request counters summed over shards.
type clusterTotals struct {
	submitted, admitted, evicted, expired, shed float64
	pending, intake                             float64
}

func readTotals(cl *cluster.Cluster) (clusterTotals, error) {
	var b bytes.Buffer
	if err := cl.WriteProm(&b); err != nil {
		return clusterTotals{}, err
	}
	text := b.Bytes()
	const req = "arserved_cluster_requests_total"
	return clusterTotals{
		submitted: promSum(text, req, `result="submitted"`),
		admitted:  promSum(text, req, `result="admitted"`),
		evicted:   promSum(text, req, `result="evicted"`),
		expired:   promSum(text, req, `result="expired"`),
		shed:      promSum(text, req, `result="shed"`),
		pending:   promSum(text, "arserved_cluster_pending_requests", ""),
		intake:    promSum(text, "arserved_cluster_intake_depth", ""),
	}, nil
}

// drainAndCheck closes intake, ticks until every shard has settled, and
// runs the output checks every invocation makes: each accepted id is
// terminal, and accepted = admitted + expired + shed with evicted a
// subset of admitted. Ids still pending count as failed operations.
func (r *httpRung) drainAndCheck() error {
	if err := r.cl.Drain(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	for i := 0; r.cl.Alive(); i++ {
		if err := r.cl.Tick(); err != nil && !errors.Is(err, serve.ErrStopped) {
			return fmt.Errorf("drain tick: %w", err)
		}
		if i > 100000 {
			return errors.New("drain did not settle in 100000 slots")
		}
	}
	tot, err := readTotals(r.cl)
	if err != nil {
		return err
	}
	live, firstLive := 0, ""
	for _, id := range r.ids {
		rec, ok, err := r.cl.Status(id)
		if err != nil {
			return fmt.Errorf("status %d after drain: %w", id, err)
		}
		// A record the bounded registry already evicted was terminal:
		// only terminal records evict.
		if ok && (rec.State == serve.StatePending || rec.State == serve.StateServing) {
			if live == 0 {
				firstLive = fmt.Sprintf("request %d (submitted slot %d) still %s", id, rec.SubmittedSlot, rec.State)
			}
			live++
		}
	}
	accepted := float64(len(r.ids))
	switch {
	case live > 0:
		r.fail(live, "after drain: %s", firstLive)
		return fmt.Errorf("%d accepted requests not terminal after drain, first: %s", live, firstLive)
	case tot.admitted+tot.expired+tot.shed != accepted:
		return fmt.Errorf("conservation broken: accepted %v != admitted %v + expired %v + shed %v",
			accepted, tot.admitted, tot.expired, tot.shed)
	case tot.evicted > tot.admitted:
		return fmt.Errorf("conservation broken: evicted %v > admitted %v", tot.evicted, tot.admitted)
	case tot.submitted < accepted:
		// Each migration handoff re-submits at the target, so shards may
		// count more submissions than the router accepted, never fewer.
		return fmt.Errorf("conservation broken: shards saw %v submissions of %v accepted", tot.submitted, accepted)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
