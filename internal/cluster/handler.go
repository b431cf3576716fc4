package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"mecoffload/internal/serve"
)

// batchBuf is one batch POST's decoded lines and their specs, reused from
// POST to POST. SubmitBatch copies every spec into its request's row, so
// nothing outlives the handler that holds the buffer.
type batchBuf struct {
	lines []serve.BatchLine
	specs []serve.RequestSpec // specs[i] is lines[i].Spec
}

var batchBufs = sync.Pool{New: func() any { return new(batchBuf) }}

// release clears the buffer, so the pool pins no spec's tasks or
// outcomes, and puts it back.
func (b *batchBuf) release() {
	clear(b.lines)
	clear(b.specs)
	b.lines, b.specs = b.lines[:0], b.specs[:0]
	batchBufs.Put(b)
}

// Handler builds the daemon's HTTP API — the only one: a single engine
// is served as a 1-shard cluster, and clients cannot tell one shard from
// N except on /metrics, which exposes every per-engine figure under an
// explicit shard label:
//
//	POST /v1/requests        submit one RequestSpec, 202 + {id, slot, state}
//	POST /v1/requests:batch  NDJSON bulk submit, routed across shards
//	GET  /v1/requests/{id}   status by global id, wherever the request lives now
//	GET  /metrics            per-shard labeled Prometheus exposition
//	GET  /healthz            200 while any shard is alive
//	GET  /readyz             200 while every shard ticks and accepts intake
//
// Overload contract: a 503 (draining, stopped, or ingest saturation)
// always carries a Retry-After header and a JSON body with a jittered
// retryAfterMS hint (serve.Engine.WriteUnavailable, from shard 0's seeded
// stream). Both POSTs enter through the door, which under saturation
// sheds the lowest expected-reward requests first and then refuses
// batches outright; a single POST it sheds on arrival answers 503.
func Handler(c *Cluster) http.Handler {
	mux := http.NewServeMux()
	front := c.engines[0] // overload contract + jitter stream

	type submitResponse struct {
		ID    uint64 `json:"id"`
		Slot  int    `json:"slot"`
		State string `json:"state"`
	}
	type errorResponse struct {
		Error string `json:"error"`
	}
	type batchResponse struct {
		Accepted int               `json:"accepted"`
		Shed     int               `json:"shed"`
		IDs      []uint64          `json:"ids,omitempty"`
		Errors   []serve.LineError `json:"errors,omitempty"`
	}

	mux.HandleFunc("POST /v1/requests", func(w http.ResponseWriter, r *http.Request) {
		// One spec has the bounds one batch line has: at most a line's
		// bytes, and nothing after the object.
		var spec serve.RequestSpec
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, serve.DefaultMaxLineBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			status := http.StatusBadRequest
			if bodyTooLarge(err) {
				status = http.StatusRequestEntityTooLarge
			}
			serve.WriteJSON(w, status, errorResponse{Error: "bad request body: " + err.Error()})
			return
		}
		if dec.More() {
			serve.WriteJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: trailing data after JSON object"})
			return
		}
		id, slot, err := c.Submit(spec)
		switch {
		case err == nil:
			serve.WriteJSON(w, http.StatusAccepted, submitResponse{ID: id, Slot: slot, State: serve.StatePending})
		case errors.Is(err, serve.ErrSaturated), errors.Is(err, serve.ErrDraining), errors.Is(err, serve.ErrStopped):
			front.WriteUnavailable(w, err)
		case errors.Is(err, serve.ErrBadSpec):
			serve.WriteJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
		default:
			serve.WriteJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		}
	})

	mux.HandleFunc("POST /v1/requests:batch", func(w http.ResponseWriter, r *http.Request) {
		// Batches beyond 32 MiB fail with 413 rather than buffering
		// without limit.
		body := http.MaxBytesReader(w, r.Body, 32<<20)
		buf := batchBufs.Get().(*batchBuf)
		defer buf.release()
		lines, lineErrs, err := serve.AppendBatch(buf.lines[:0], body, 0, 0)
		buf.lines = lines
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, serve.ErrBatchTooLarge) || bodyTooLarge(err) {
				status = http.StatusRequestEntityTooLarge
			}
			serve.WriteJSON(w, status, errorResponse{Error: "bad batch: " + err.Error()})
			return
		}
		if len(lines) == 0 && len(lineErrs) == 0 {
			serve.WriteJSON(w, http.StatusBadRequest, errorResponse{Error: "empty batch"})
			return
		}
		specs := buf.specs[:0]
		for _, ln := range lines {
			specs = append(specs, ln.Spec)
		}
		buf.specs = specs
		res, err := c.SubmitBatch(specs)
		switch {
		case err == nil:
			// A line the router's check or its shard refused is an error of
			// that line, so a malformed spec is answered here instead of
			// being shed later.
			for _, r := range res.Refused {
				lineErrs = append(lineErrs, serve.LineError{Line: lines[r.Index].Line, Error: r.Err.Error()})
			}
			slices.SortStableFunc(lineErrs, func(a, b serve.LineError) int { return a.Line - b.Line })
			serve.WriteJSON(w, http.StatusOK, batchResponse{
				Accepted: len(res.IDs),
				Shed:     res.Shed,
				IDs:      res.IDs,
				Errors:   lineErrs,
			})
		case errors.Is(err, serve.ErrSaturated), errors.Is(err, serve.ErrDraining), errors.Is(err, serve.ErrStopped):
			front.WriteUnavailable(w, err)
		default:
			serve.WriteJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		}
	})

	mux.HandleFunc("GET /v1/requests/{id}", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
		if err != nil {
			serve.WriteJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request id"})
			return
		}
		rec, ok, err := c.Status(id)
		if err != nil {
			front.WriteUnavailable(w, err)
			return
		}
		if !ok {
			serve.WriteJSON(w, http.StatusNotFound, errorResponse{Error: "unknown request"})
			return
		}
		serve.WriteJSON(w, http.StatusOK, rec)
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = c.WriteProm(w)
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if c.Alive() {
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write([]byte("ok\n"))
			return
		}
		http.Error(w, "cluster stopped", http.StatusServiceUnavailable)
	})

	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if c.Ready() {
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write([]byte("ready\n"))
			return
		}
		http.Error(w, "not ready", http.StatusServiceUnavailable)
	})

	return mux
}

// bodyTooLarge reports whether reading a request body stopped at its
// http.MaxBytesReader limit.
func bodyTooLarge(err error) bool {
	var tooBig *http.MaxBytesError
	return errors.As(err, &tooBig)
}

// WriteProm renders the daemon's one Prometheus exposition. Cluster-level
// families (shard count, clock, routing, checkpoints) carry no shard
// label; everything an engine measures is rendered once per shard under
// shard="k", so an operator sees per-shard slot latency, queue depth,
// and component replays and solves at any shard count.
// Station gauges render each station once, from its owning shard.
func (c *Cluster) WriteProm(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	family := func(name, typ, help string) {
		p("# HELP arserved_cluster_%s %s\n# TYPE arserved_cluster_%s %s\n", name, help, name, typ)
	}
	// perShard renders one sample per shard; labeled renders one sample
	// per shard and label value.
	perShard := func(name, typ, help string, val func(eng *serve.Engine) any) {
		family(name, typ, help)
		for k, eng := range c.engines {
			p("arserved_cluster_%s{shard=\"%d\"} %v\n", name, k, val(eng))
		}
	}
	type labeledValue struct {
		label string
		v     any
	}
	labeled := func(name, typ, help, key string, vals func(eng *serve.Engine) []labeledValue) {
		family(name, typ, help)
		for k, eng := range c.engines {
			for _, lv := range vals(eng) {
				p("arserved_cluster_%s{shard=\"%d\",%s=\"%s\"} %v\n", name, k, key, lv.label, lv.v)
			}
		}
	}
	histogram := func(name, help string, snap func(m *serve.Metrics) serve.HistogramSnapshot) {
		family(name, "histogram", help)
		for k, eng := range c.engines {
			h := snap(eng.Metrics())
			for i, b := range h.Bounds {
				p("arserved_cluster_%s_bucket{shard=\"%d\",le=\"%g\"} %d\n", name, k, b, h.Counts[i])
			}
			p("arserved_cluster_%s_bucket{shard=\"%d\",le=\"+Inf\"} %d\n", name, k, h.Count)
			p("arserved_cluster_%s_sum{shard=\"%d\"} %g\n", name, k, h.Sum)
			p("arserved_cluster_%s_count{shard=\"%d\"} %d\n", name, k, h.Count)
		}
	}

	family("shards", "gauge", "Configured scheduler shards.")
	p("arserved_cluster_shards %d\n", len(c.engines))
	family("slot", "gauge", "The cluster clock's next scheduling slot.")
	p("arserved_cluster_slot %d\n", c.Slot())
	rs := c.RouterStats()
	family("routed_total", "counter", "Requests routed, by path: fast when the access station leaves no shard to choose (no candidate list is built) or one shard owns every candidate; spanning and no_candidate count only routes that built a candidate list.")
	p("arserved_cluster_routed_total{path=\"fast\"} %d\n", rs.FastPath)
	p("arserved_cluster_routed_total{path=\"spanning\"} %d\n", rs.Spanning)
	p("arserved_cluster_routed_total{path=\"no_candidate\"} %d\n", rs.NoCandidate)
	family("checkpoints_total", "counter", "Cluster manifests written.")
	p("arserved_cluster_checkpoints_total %d\n", c.checkpoints.Load())
	family("checkpoints_dropped_total", "counter", "Async snapshot generations superseded before reaching disk.")
	p("arserved_cluster_checkpoints_dropped_total %d\n", c.CheckpointsDropped())

	labeled("requests_total", "counter", "Per-shard requests by terminal result.", "result", func(eng *serve.Engine) []labeledValue {
		m := eng.Metrics()
		return []labeledValue{
			{"submitted", m.Submitted.Load()}, {"rejected", m.Rejected.Load()},
			{"admitted", m.Admitted.Load()}, {"served", m.Served.Load()},
			{"evicted", m.Evicted.Load()}, {"expired", m.Expired.Load()},
			{"departed", m.Departed.Load()}, {"shed", m.Shed.Load()},
		}
	})
	perShard("reward_dollars_total", "counter", "Per-shard realized reward.",
		func(eng *serve.Engine) any { return eng.Metrics().Reward.Load() })
	perShard("ticks_total", "counter", "Per-shard scheduling slots executed.",
		func(eng *serve.Engine) any { return eng.Metrics().Ticks.Load() })
	perShard("slot_errors_total", "counter", "Per-shard slots whose scheduler returned an error.",
		func(eng *serve.Engine) any { return eng.Metrics().SlotErrors.Load() })
	perShard("pending_requests", "gauge", "Per-shard admission-queue depth.",
		func(eng *serve.Engine) any { return eng.Metrics().PendingDepth.Load() })
	perShard("active_streams", "gauge", "Per-shard streams occupying service instances.",
		func(eng *serve.Engine) any { return eng.Metrics().ActiveStreams.Load() })

	perShard("batches_total", "counter", "Per-shard intake batches accepted at the door (a single POST is a batch of one).",
		func(eng *serve.Engine) any { return eng.Metrics().Batches.Load() })
	perShard("batch_requests_total", "counter", "Per-shard requests carried by accepted intake batches.",
		func(eng *serve.Engine) any { return eng.Metrics().BatchRequests.Load() })
	perShard("saturated_total", "counter", "Per-shard intake batches refused because the door was saturated.",
		func(eng *serve.Engine) any { return eng.Metrics().Saturated.Load() })
	perShard("intake_depth", "gauge", "Per-shard requests waiting at the door for the planner.",
		func(eng *serve.Engine) any { return eng.Metrics().IntakeDepth.Load() })

	histogram("slot_duration_ms", "Per-shard scheduling latency of one slot.", (*serve.Metrics).SlotDurationSnapshot)
	histogram("intake_latency_ms", "Per-shard intake handoff latency (door enqueue to planner append, including the wait for the next flush or slot).", (*serve.Metrics).IntakeLatencySnapshot)

	labeled("component_solves_total", "counter", "Per-shard per-slot LP component decisions by path: clean replays the cached decision, lp is a component solve. A component none of whose rounding draws can place a request is neither.", "path", func(eng *serve.Engine) []labeledValue {
		inc := eng.IncStats()
		return []labeledValue{{"clean", inc.CleanHits}, {"lp", inc.DirtySolves}}
	})

	gauges := make([][]serve.StationGauge, len(c.engines))
	for k, eng := range c.engines {
		gauges[k] = eng.Gauges()
	}
	stations := func(name, help string, val func(g serve.StationGauge) float64) {
		family(name, "gauge", help)
		for k, part := range c.parts {
			for _, st := range part {
				p("arserved_cluster_%s{shard=\"%d\",station=\"%d\"} %g\n", name, k, st, val(gauges[k][st]))
			}
		}
	}
	stations("station_used_mhz", "Realized MHz per global station, from its owning shard.",
		func(g serve.StationGauge) float64 { return g.UsedMHz })
	stations("station_capacity_mhz", "Configured MHz capacity per global station.",
		func(g serve.StationGauge) float64 { return g.CapacityMHz })
	return err
}
