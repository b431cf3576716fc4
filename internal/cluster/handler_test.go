package cluster_test

// The HTTP contract of the daemon's one handler, at one shard and at two:
// 202/422/400/404/413/503, the Retry-After + retryAfterMS overload shape,
// liveness/readiness gating, and the NDJSON bulk endpoint. (These tests
// lived on serve.Handler until the cluster became the only serving path.)

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mecoffload/internal/cluster"
	"mecoffload/internal/mec"
	"mecoffload/internal/rnd"
	"mecoffload/internal/serve"
)

// The handler's response bodies, as a client sees them.
type (
	submitResponse struct {
		ID    uint64 `json:"id"`
		Slot  int    `json:"slot"`
		State string `json:"state"`
	}
	batchResponse struct {
		Accepted int               `json:"accepted"`
		Shed     int               `json:"shed"`
		IDs      []uint64          `json:"ids"`
		Errors   []serve.LineError `json:"errors"`
	}
	errorResponse struct {
		Error        string `json:"error"`
		RetryAfterMS int    `json:"retryAfterMS"`
	}
)

// eachShardCount runs a handler test against a 1-shard and a 2-shard
// cluster: the contract may not depend on the shard count.
func eachShardCount(t *testing.T, test func(t *testing.T, c *cluster.Cluster, url string)) {
	eachShardCountWith(t, cluster.Config{}, test)
}

// eachShardCountWith is eachShardCount over clusters built from cfg, its
// network, shard count and seed filled in.
func eachShardCountWith(t *testing.T, cfg cluster.Config, test func(t *testing.T, c *cluster.Cluster, url string)) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			net, err := mec.RandomNetwork(4, 3000, 3600, rand.New(rand.NewSource(11)))
			if err != nil {
				t.Fatal(err)
			}
			cfg.Net, cfg.Shards, cfg.Seed = net, shards, 5
			c, err := cluster.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			srv := httptest.NewServer(cluster.Handler(c))
			t.Cleanup(func() {
				srv.Close()
				_ = c.Stop()
			})
			test(t, c, srv.URL)
		})
	}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return post(t, url, "application/json", bytes.NewReader(data))
}

// postNDJSON posts a raw NDJSON body to the batch endpoint.
func postNDJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	return post(t, url+"/v1/requests:batch", "application/x-ndjson", strings.NewReader(body))
}

func post(t *testing.T, url, contentType string, body io.Reader) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestHTTPSubmitAndStatus walks the JSON API end to end: submit, poll
// status through a tick, scrape metrics.
func TestHTTPSubmitAndStatus(t *testing.T) {
	eachShardCount(t, func(t *testing.T, c *cluster.Cluster, url string) {
		resp, body := postJSON(t, url+"/v1/requests", serve.RequestSpec{AccessStation: 1})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status %d: %s", resp.StatusCode, body)
		}
		var sub submitResponse
		if err := json.Unmarshal(body, &sub); err != nil {
			t.Fatal(err)
		}
		if sub.State != serve.StatePending {
			t.Fatalf("submitted state %q", sub.State)
		}

		resp, body = get(t, fmt.Sprintf("%s/v1/requests/%d", url, sub.ID))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status lookup %d: %s", resp.StatusCode, body)
		}
		var rec serve.RequestRecord
		if err := json.Unmarshal(body, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.ID != sub.ID || rec.State != serve.StatePending {
			t.Fatalf("record %+v", rec)
		}

		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		resp, body = get(t, fmt.Sprintf("%s/v1/requests/%d", url, sub.ID))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status lookup %d", resp.StatusCode)
		}
		if err := json.Unmarshal(body, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.State != serve.StateServing && rec.State != serve.StateEvicted {
			t.Fatalf("post-tick state %q, want a decided state", rec.State)
		}

		resp, _ = get(t, url+"/v1/requests/999999")
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown id -> %d, want 404", resp.StatusCode)
		}
		resp, _ = get(t, url+"/v1/requests/not-a-number")
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad id -> %d, want 400", resp.StatusCode)
		}

		resp, body = get(t, url+"/metrics")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("metrics status %d", resp.StatusCode)
		}
		// Station 1 sits in shard 0 at either shard count.
		for _, want := range []string{
			`arserved_cluster_requests_total{shard="0",result="submitted"} 1`,
			`arserved_cluster_ticks_total{shard="0"} 1`,
			`arserved_cluster_station_capacity_mhz{shard="0",station="0"}`,
			`arserved_cluster_slot_duration_ms_count{shard="0"} 1`,
		} {
			if !strings.Contains(string(body), want) {
				t.Errorf("metrics missing %q", want)
			}
		}
	})
}

// TestStatusReportsGlobalStation: a record's station is a network station
// id at any shard count. At two shards on the 20-station mesh, every
// serving or evicted record GET /v1/requests/{id} returns names a station
// its shard owns, and both shards place requests.
func TestStatusReportsGlobalStation(t *testing.T) {
	const stations = 20
	net, err := mec.RandomNetwork(stations, 3000, 3600, rnd.New(42, "topology"))
	if err != nil {
		t.Fatal(err)
	}
	parts, err := cluster.Partition(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	owner := make([]int, stations)
	for k, part := range parts {
		for _, st := range part {
			owner[st] = k
		}
	}
	c, err := cluster.New(cluster.Config{Net: net, Shards: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	srv := httptest.NewServer(cluster.Handler(c))
	defer func() {
		srv.Close()
		_ = c.Stop()
	}()

	var ids []uint64
	for slot := 0; slot < 4; slot++ {
		for st := 0; st < stations; st++ {
			resp, body := postJSON(t, srv.URL+"/v1/requests", serve.RequestSpec{AccessStation: st, DurationSlots: 8})
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit status %d: %s", resp.StatusCode, body)
			}
			var sub submitResponse
			if err := json.Unmarshal(body, &sub); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, sub.ID)
		}
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	placed := make([]int, len(parts))
	for _, id := range ids {
		resp, body := get(t, fmt.Sprintf("%s/v1/requests/%d", srv.URL, id))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status lookup %d: %s", resp.StatusCode, body)
		}
		var rec serve.RequestRecord
		if err := json.Unmarshal(body, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.State != serve.StateServing && rec.State != serve.StateEvicted {
			continue
		}
		shard, ok := c.ShardOf(id)
		if !ok {
			t.Fatalf("request %d has no shard", id)
		}
		if rec.Station < 0 || rec.Station >= stations || owner[rec.Station] != shard {
			t.Fatalf("request %d on shard %d (stations %v) reports %s on station %d", id, shard, parts[shard], rec.State, rec.Station)
		}
		placed[shard]++
	}
	if placed[0] == 0 || placed[1] == 0 {
		t.Fatalf("placed %v requests per shard: want both shards to place some", placed)
	}
}

// TestHTTPErrorPaths covers the non-2xx API surface.
func TestHTTPErrorPaths(t *testing.T) {
	eachShardCount(t, func(t *testing.T, c *cluster.Cluster, url string) {
		resp, _ := postJSON(t, url+"/v1/requests", serve.RequestSpec{AccessStation: 77})
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("bad station -> %d, want 422", resp.StatusCode)
		}
		resp, _ = post(t, url+"/v1/requests", "application/json", strings.NewReader("{nope"))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("garbage body -> %d, want 400", resp.StatusCode)
		}
		resp, _ = post(t, url+"/v1/requests", "application/json", strings.NewReader(`{"unknownField": 3}`))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("unknown field -> %d, want 400", resp.StatusCode)
		}
		// One line past the batch line limit: the whole batch is refused.
		resp, _ = postNDJSON(t, url, strings.Repeat("{}\n", serve.DefaultMaxBatchLines+1))
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized batch -> %d, want 413", resp.StatusCode)
		}

		if err := c.Drain(); err != nil {
			t.Fatal(err)
		}
		resp, _ = postJSON(t, url+"/v1/requests", serve.RequestSpec{AccessStation: 0})
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("submit while draining -> %d, want 503", resp.StatusCode)
		}
	})
}

// TestHTTPSingleSubmitBounds: POST /v1/requests holds one spec to the
// bounds the batch path holds one line to — at most a line's bytes (413
// past that) and nothing after the object (400) — and a well-formed body,
// trailing newline included, is still a 202.
func TestHTTPSingleSubmitBounds(t *testing.T) {
	eachShardCount(t, func(t *testing.T, c *cluster.Cluster, url string) {
		for _, tc := range []struct {
			name, body string
			want       int
		}{
			{"well-formed", `{"accessStation":1,"durationSlots":2}`, http.StatusAccepted},
			{"trailing newline", "{\"accessStation\":1}\r\n", http.StatusAccepted},
			{"trailing garbage", `{"accessStation":1} garbage`, http.StatusBadRequest},
			{"second object", `{"accessStation":1}{"accessStation":2}`, http.StatusBadRequest},
			{"oversized", `{"accessStation":1,"tasks":[{"name":"` + strings.Repeat("x", serve.DefaultMaxLineBytes) + `"}]}`, http.StatusRequestEntityTooLarge},
		} {
			resp, out := post(t, url+"/v1/requests", "application/json", strings.NewReader(tc.body))
			if resp.StatusCode != tc.want {
				t.Fatalf("%s -> %d, want %d: %.200s", tc.name, resp.StatusCode, tc.want, out)
			}
		}
		// Submitted counts what the planners hold: the accepted POSTs wait
		// at the door until a flush or a tick.
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := c.Totals().Submitted; got != 2 {
			t.Fatalf("%d requests submitted, want the 2 well-formed ones", got)
		}
	})
}

// TestHTTPBatchMixedLines: one POST mixing lines the scanner decodes, lines
// only encoding/json decodes (an escaped id, a case-folded key) and
// malformed ones answers exactly as the wire contract says, whichever
// decoder read each line.
func TestHTTPBatchMixedLines(t *testing.T) {
	eachShardCount(t, func(t *testing.T, c *cluster.Cluster, url string) {
		body := strings.Join([]string{
			`{"id":"a","accessStation":0,"outcomes":[{"rateMBs":40,"prob":1,"reward":500}]}`,
			`{"id":"\u0062","accessStation":1}`,
			`{"AccessStation":2}`,
			`{"id":"a","accessStation":3}`,
			`{"accessStation":01}`,
			`{"accessStation":1} trailing`,
			`{"accessStation":1,"outcomes":[{"rateMBs":40,"prob":0.5,"reward":500}]}`,
		}, "\n") + "\n"
		resp, out := postNDJSON(t, url, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch -> %d: %s", resp.StatusCode, out)
		}
		var br batchResponse
		if err := json.Unmarshal(out, &br); err != nil {
			t.Fatal(err)
		}
		if br.Accepted != 3 || len(br.IDs) != 3 {
			t.Fatalf("batch response %+v, want lines 1-3 accepted", br)
		}
		want := []struct {
			line int
			text string
		}{
			{4, `duplicate id "a" (first used on line 1)`},
			{5, "bad line: invalid character '1' after object key:value pair"},
			{6, "trailing data after JSON object"},
			{7, "total mass 0.5"},
		}
		if len(br.Errors) != len(want) {
			t.Fatalf("line errors %+v, want %d", br.Errors, len(want))
		}
		for i, w := range want {
			if got := br.Errors[i]; got.Line != w.line || !strings.Contains(got.Error, w.text) {
				t.Fatalf("line error %d = %+v, want line %d mentioning %q", i, got, w.line, w.text)
			}
		}
	})
}

// TestHealthEndpoints checks liveness and readiness gating.
func TestHealthEndpoints(t *testing.T) {
	eachShardCount(t, func(t *testing.T, c *cluster.Cluster, url string) {
		resp, _ := get(t, url+"/healthz")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz %d", resp.StatusCode)
		}
		resp, _ = get(t, url+"/readyz")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("readyz %d", resp.StatusCode)
		}

		// Draining with work still in flight: alive but not ready. (A
		// shard drained with nothing pending or running exits at once.)
		if _, _, err := c.Submit(serve.RequestSpec{AccessStation: 0}); err != nil {
			t.Fatal(err)
		}
		if err := c.Drain(); err != nil {
			t.Fatal(err)
		}
		resp, _ = get(t, url+"/healthz")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz while draining %d", resp.StatusCode)
		}
		resp, _ = get(t, url+"/readyz")
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("readyz while draining %d, want 503", resp.StatusCode)
		}

		// Stopped: neither.
		if err := c.Stop(); err != nil {
			t.Fatal(err)
		}
		resp, _ = get(t, url+"/healthz")
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("healthz after stop %d, want 503", resp.StatusCode)
		}
		resp, _ = get(t, url+"/readyz")
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("readyz after stop %d, want 503", resp.StatusCode)
		}
	})
}

// TestHTTPBatchSubmit drives the NDJSON bulk endpoint: good lines admit
// in order, bad lines come back as per-line errors without sinking the
// batch, and the assigned ids resolve via the status API.
func TestHTTPBatchSubmit(t *testing.T) {
	eachShardCount(t, func(t *testing.T, c *cluster.Cluster, url string) {
		body := `{"accessStation":0,"durationSlots":3}
{"accessStation":99}
{not json
{"accessStation":3,"deadlineMS":150}
`
		resp, out := postNDJSON(t, url, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch -> %d: %s", resp.StatusCode, out)
		}
		var br batchResponse
		if err := json.Unmarshal(out, &br); err != nil {
			t.Fatal(err)
		}
		if br.Accepted != 2 || len(br.IDs) != 2 || br.Shed != 0 {
			t.Fatalf("batch response %+v, want 2 accepted", br)
		}
		if len(br.Errors) != 2 {
			t.Fatalf("line errors %+v, want 2 (bad station line 2, bad JSON line 3)", br.Errors)
		}
		errLines := map[int]bool{br.Errors[0].Line: true, br.Errors[1].Line: true}
		if !errLines[2] || !errLines[3] {
			t.Fatalf("line errors on %+v, want lines 2 and 3", br.Errors)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, id := range br.IDs {
			resp, body := get(t, fmt.Sprintf("%s/v1/requests/%d", url, id))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d -> %d: %s", id, resp.StatusCode, body)
			}
			var rec serve.RequestRecord
			if err := json.Unmarshal(body, &rec); err != nil {
				t.Fatal(err)
			}
			if rec.ID != id || rec.State != serve.StatePending {
				t.Fatalf("batch request %d record %+v, want pending under its own id", id, rec)
			}
		}

		// All-garbage batch: 200 with only line errors, nothing admitted.
		resp, out = postNDJSON(t, url, "{nope\n")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("all-garbage batch -> %d: %s", resp.StatusCode, out)
		}
		br = batchResponse{}
		if err := json.Unmarshal(out, &br); err != nil {
			t.Fatal(err)
		}
		if br.Accepted != 0 || len(br.Errors) != 1 {
			t.Fatalf("all-garbage response %+v", br)
		}

		// Empty body is a client error.
		resp, _ = postNDJSON(t, url, "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("empty batch -> %d, want 400", resp.StatusCode)
		}
	})
}

// TestHTTPOverloadContract pins the 503 shape: Retry-After header, JSON
// body with a jittered retryAfterMS hint in [500, 1000). Both POSTs answer
// it while draining, and a single POST answers it when the door sheds it
// on arrival: every request obeys one overload rule.
func TestHTTPOverloadContract(t *testing.T) {
	unavailable := func(t *testing.T, what string, resp *http.Response, out []byte) {
		t.Helper()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s -> %d, want 503", what, resp.StatusCode)
		}
		ra := resp.Header.Get("Retry-After")
		if ra == "" {
			t.Fatal("503 without Retry-After header")
		}
		var eresp errorResponse
		if err := json.Unmarshal(out, &eresp); err != nil {
			t.Fatalf("503 body not structured JSON: %q", out)
		}
		if eresp.Error == "" {
			t.Fatal("503 body missing error message")
		}
		if eresp.RetryAfterMS < 500 || eresp.RetryAfterMS >= 1000 {
			t.Fatalf("retryAfterMS = %d, want jittered in [500, 1000)", eresp.RetryAfterMS)
		}
	}
	eachShardCount(t, func(t *testing.T, c *cluster.Cluster, url string) {
		// Keep station 0's shard alive through the drain so the refusal is
		// ErrDraining.
		if _, _, err := c.Submit(serve.RequestSpec{AccessStation: 0}); err != nil {
			t.Fatal(err)
		}
		if err := c.Drain(); err != nil {
			t.Fatal(err)
		}
		for _, post := range []func() (*http.Response, []byte){
			func() (*http.Response, []byte) { return postJSON(t, url+"/v1/requests", serve.RequestSpec{}) },
			func() (*http.Response, []byte) { return postNDJSON(t, url, "{}\n") },
		} {
			resp, out := post()
			unavailable(t, "draining submit", resp, out)
		}
	})

	// A door of one and no tick: every single POST after the first finds
	// the door full, and the cheaper request of the two sheds.
	t.Run("shed on arrival", func(t *testing.T) {
		eachShardCountWith(t, cluster.Config{DoorCapacity: 1}, func(t *testing.T, c *cluster.Cluster, url string) {
			priced := func(reward float64) serve.RequestSpec {
				return serve.RequestSpec{AccessStation: 0, Outcomes: []serve.OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: reward}}}
			}
			submit := func(reward float64) submitResponse {
				t.Helper()
				resp, out := postJSON(t, url+"/v1/requests", priced(reward))
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("single POST at $%v -> %d, want 202: %s", reward, resp.StatusCode, out)
				}
				var sub submitResponse
				if err := json.Unmarshal(out, &sub); err != nil {
					t.Fatal(err)
				}
				return sub
			}
			first := submit(200)
			resp, out := postJSON(t, url+"/v1/requests", priced(100))
			unavailable(t, "cheaper single POST at a full door", resp, out)
			submit(300)
			resp, out = get(t, fmt.Sprintf("%s/v1/requests/%d", url, first.ID))
			var rec serve.RequestRecord
			if err := json.Unmarshal(out, &rec); err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("status of the first request -> %d: %s", resp.StatusCode, out)
			}
			if rec.State != serve.StateShed {
				t.Fatalf("first request %q after a dearer arrival at a full door, want %q", rec.State, serve.StateShed)
			}
		})
	})
}

// TestHTTPRetryAfterHintsReplaySeed pins the 503 hints themselves: the
// cluster keeps one Retry-After stream, seeded from Config.Seed under
// the label "cluster-retry-0", and every handler built on it draws from
// that one stream in turn, whatever the shard count.
func TestHTTPRetryAfterHintsReplaySeed(t *testing.T) {
	eachShardCount(t, func(t *testing.T, c *cluster.Cluster, url string) {
		second := httptest.NewServer(cluster.Handler(c))
		t.Cleanup(second.Close)
		if _, _, err := c.Submit(serve.RequestSpec{AccessStation: 0}); err != nil {
			t.Fatal(err)
		}
		if err := c.Drain(); err != nil {
			t.Fatal(err)
		}
		want := rnd.New(rnd.Derive(5, "cluster-retry-0"), "retry-after")
		for i, base := range []string{url, second.URL, url, second.URL, url, second.URL} {
			var resp *http.Response
			var out []byte
			if i%2 == 0 {
				resp, out = postJSON(t, base+"/v1/requests", serve.RequestSpec{})
			} else {
				resp, out = postNDJSON(t, base, "{}\n")
			}
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("503 #%d -> %d, want 503: %s", i, resp.StatusCode, out)
			}
			var eresp errorResponse
			if err := json.Unmarshal(out, &eresp); err != nil {
				t.Fatal(err)
			}
			d := time.Duration((1 + want.Float64()) * float64(500*time.Millisecond))
			if ms := int(d / time.Millisecond); eresp.RetryAfterMS != ms {
				t.Fatalf("503 #%d retryAfterMS = %d, want %d from the cluster's seeded stream", i, eresp.RetryAfterMS, ms)
			}
			if ra := resp.Header.Get("Retry-After"); ra != "1" {
				t.Fatalf("503 #%d Retry-After = %q, want \"1\"", i, ra)
			}
		}
	})
}
