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

	"mecoffload/internal/cluster"
	"mecoffload/internal/mec"
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
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			net, err := mec.RandomNetwork(4, 3000, 3600, rand.New(rand.NewSource(11)))
			if err != nil {
				t.Fatal(err)
			}
			c, err := cluster.New(cluster.Config{Net: net, Shards: shards, Seed: 5})
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
// body with a jittered retryAfterMS hint in [500, 1000).
func TestHTTPOverloadContract(t *testing.T) {
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
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("draining submit -> %d, want 503", resp.StatusCode)
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
	})
}
