package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"mecoffload/internal/serve"
)

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
// stream); under saturation the batch path sheds the lowest
// expected-reward requests first before refusing batches outright.
func Handler(c *Cluster) http.Handler {
	mux := http.NewServeMux()
	front := c.nodes[0].eng // overload contract + jitter stream

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
		case errors.Is(err, serve.ErrDraining), errors.Is(err, serve.ErrStopped):
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
		lines, lineErrs, err := serve.DecodeBatch(body, 0, 0)
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, serve.ErrBatchTooLarge) || bodyTooLarge(err) {
				status = http.StatusRequestEntityTooLarge
			}
			serve.WriteJSON(w, status, errorResponse{Error: "bad batch: " + err.Error()})
			return
		}
		// Validate up front so malformed specs come back as line errors
		// instead of asynchronous sheds.
		specs := make([]serve.RequestSpec, 0, len(lines))
		for _, ln := range lines {
			if verr := c.ValidateSpec(ln.Spec); verr != nil {
				lineErrs = append(lineErrs, serve.LineError{Line: ln.Line, Error: verr.Error()})
				continue
			}
			specs = append(specs, ln.Spec)
		}
		if len(specs) == 0 && len(lineErrs) == 0 {
			serve.WriteJSON(w, http.StatusBadRequest, errorResponse{Error: "empty batch"})
			return
		}
		res, err := c.SubmitBatch(specs)
		switch {
		case err == nil:
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
// shard="k", so an operator sees per-shard slot latency, queue depth, LP
// warm-start and component-solve behaviour, and migration flow at any
// shard count. Station gauges are labeled with GLOBAL station ids.
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
	perShard := func(name, typ, help string, val func(nd *shardNode) any) {
		family(name, typ, help)
		for k, nd := range c.nodes {
			p("arserved_cluster_%s{shard=\"%d\"} %v\n", name, k, val(nd))
		}
	}
	type labeledValue struct {
		label string
		v     any
	}
	labeled := func(name, typ, help, key string, vals func(nd *shardNode) []labeledValue) {
		family(name, typ, help)
		for k, nd := range c.nodes {
			for _, lv := range vals(nd) {
				p("arserved_cluster_%s{shard=\"%d\",%s=\"%s\"} %v\n", name, k, key, lv.label, lv.v)
			}
		}
	}
	histogram := func(name, help string, snap func(m *serve.Metrics) serve.HistogramSnapshot) {
		family(name, "histogram", help)
		for k, nd := range c.nodes {
			h := snap(nd.eng.Metrics())
			for i, b := range h.Bounds {
				p("arserved_cluster_%s_bucket{shard=\"%d\",le=\"%g\"} %d\n", name, k, b, h.Counts[i])
			}
			p("arserved_cluster_%s_bucket{shard=\"%d\",le=\"+Inf\"} %d\n", name, k, h.Count)
			p("arserved_cluster_%s_sum{shard=\"%d\"} %g\n", name, k, h.Sum)
			p("arserved_cluster_%s_count{shard=\"%d\"} %d\n", name, k, h.Count)
		}
	}

	family("shards", "gauge", "Configured scheduler shards.")
	p("arserved_cluster_shards %d\n", len(c.nodes))
	family("slot", "gauge", "The cluster clock's next scheduling slot.")
	p("arserved_cluster_slot %d\n", c.Slot())
	rs := c.RouterStats()
	family("routed_total", "counter", "Requests routed, by path.")
	p("arserved_cluster_routed_total{path=\"fast\"} %d\n", rs.FastPath)
	p("arserved_cluster_routed_total{path=\"spanning\"} %d\n", rs.Spanning)
	p("arserved_cluster_routed_total{path=\"no_candidate\"} %d\n", rs.NoCandidate)
	family("checkpoints_total", "counter", "Cluster manifests written.")
	p("arserved_cluster_checkpoints_total %d\n", c.checkpoints.Load())
	family("checkpoints_dropped_total", "counter", "Async snapshot generations superseded before reaching disk.")
	p("arserved_cluster_checkpoints_dropped_total %d\n", c.CheckpointsDropped())

	labeled("requests_total", "counter", "Per-shard requests by terminal result.", "result", func(nd *shardNode) []labeledValue {
		m := nd.eng.Metrics()
		return []labeledValue{
			{"submitted", m.Submitted.Load()}, {"rejected", m.Rejected.Load()},
			{"admitted", m.Admitted.Load()}, {"served", m.Served.Load()},
			{"evicted", m.Evicted.Load()}, {"expired", m.Expired.Load()},
			{"departed", m.Departed.Load()}, {"shed", m.Shed.Load()},
		}
	})
	perShard("reward_dollars_total", "counter", "Per-shard realized reward.",
		func(nd *shardNode) any { return nd.eng.Metrics().Reward.Load() })
	perShard("ticks_total", "counter", "Per-shard scheduling slots executed.",
		func(nd *shardNode) any { return nd.eng.Metrics().Ticks.Load() })
	perShard("slot_errors_total", "counter", "Per-shard slots whose scheduler returned an error.",
		func(nd *shardNode) any { return nd.eng.Metrics().SlotErrors.Load() })
	perShard("pending_requests", "gauge", "Per-shard admission-queue depth.",
		func(nd *shardNode) any { return nd.eng.Metrics().PendingDepth.Load() })
	perShard("active_streams", "gauge", "Per-shard streams occupying service instances.",
		func(nd *shardNode) any { return nd.eng.Metrics().ActiveStreams.Load() })

	perShard("batches_total", "counter", "Per-shard bulk intake batches accepted.",
		func(nd *shardNode) any { return nd.eng.Metrics().Batches.Load() })
	perShard("batch_requests_total", "counter", "Per-shard requests carried by accepted bulk batches.",
		func(nd *shardNode) any { return nd.eng.Metrics().BatchRequests.Load() })
	perShard("saturated_total", "counter", "Per-shard bulk batches refused because the ingest path was saturated.",
		func(nd *shardNode) any { return nd.eng.Metrics().Saturated.Load() })
	perShard("intake_depth", "gauge", "Per-shard ingest ring plus overflow-stage depth.",
		func(nd *shardNode) any { return nd.eng.Metrics().IntakeDepth.Load() + nd.eng.StagedDepth() })
	perShard("intake_ring_depth", "gauge", "Per-shard entries waiting in the ingest ring.",
		func(nd *shardNode) any { return nd.eng.Metrics().IntakeDepth.Load() })
	perShard("intake_staged_depth", "gauge", "Per-shard entries waiting in the reward-sorted overflow stage.",
		func(nd *shardNode) any { return nd.eng.StagedDepth() })

	family("migrations_total", "counter", "Committed cross-shard handoffs per shard and direction.")
	in, out := c.MigratedCounts()
	for k := range c.nodes {
		p("arserved_cluster_migrations_total{shard=\"%d\",direction=\"in\"} %d\n", k, in[k])
		p("arserved_cluster_migrations_total{shard=\"%d\",direction=\"out\"} %d\n", k, out[k])
	}

	histogram("slot_duration_ms", "Per-shard scheduling latency of one slot.", (*serve.Metrics).SlotDurationSnapshot)
	histogram("intake_latency_ms", "Per-shard batched-ingest handoff latency (door enqueue to planner append, including the wait for the next flush or slot).", (*serve.Metrics).IntakeLatencySnapshot)

	labeled("lp_warmstart_total", "counter", "Per-shard LP-PT warm-start basis lookups by outcome.", "outcome", func(nd *shardNode) []labeledValue {
		hits, misses := nd.eng.WarmStats()
		return []labeledValue{{"hit", hits}, {"miss", misses}}
	})
	perShard("lp_warmstart_hit_ratio", "gauge", "Per-shard fraction of LP-PT solves seeded from a previous basis.", func(nd *shardNode) any {
		hits, misses := nd.eng.WarmStats()
		if hits+misses == 0 {
			return 0.0
		}
		return float64(hits) / float64(hits+misses)
	})
	labeled("component_solves_total", "counter", "Per-shard per-slot LP component decisions by path: clean replays the cached decision, lp is a component solve.", "path", func(nd *shardNode) []labeledValue {
		inc := nd.eng.IncStats()
		return []labeledValue{{"clean", inc.CleanHits}, {"lp", inc.DirtySolves}}
	})

	gauges := make([][]serve.StationGauge, len(c.nodes))
	for k, nd := range c.nodes {
		gauges[k] = nd.eng.Gauges()
	}
	stations := func(name, help string, val func(g serve.StationGauge) float64) {
		family(name, "gauge", help)
		for k, nd := range c.nodes {
			for _, g := range gauges[k] {
				p("arserved_cluster_%s{shard=\"%d\",station=\"%d\"} %g\n", name, k, nd.stations[g.Station], val(g))
			}
		}
	}
	stations("station_used_mhz", "Realized MHz per global station, from its owning shard.",
		func(g serve.StationGauge) float64 { return g.UsedMHz })
	stations("station_capacity_mhz", "Configured MHz capacity per global station.",
		func(g serve.StationGauge) float64 { return g.CapacityMHz })
	return err
}
