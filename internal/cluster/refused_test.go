package cluster

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"mecoffload/internal/serve"
)

// TestRefusedLinesReported: when one shard refuses its share of a batch
// and another accepts the rest, every refused spec is reported, by its
// position in the batch and with its shard's refusal — in the merge of the
// shards' results (fed a made-up refusal) and on the wire, where each
// refused line is an error of its physical line number and the ids still
// match the accepted lines.
func TestRefusedLinesReported(t *testing.T) {
	refusal, badSpec := errors.New("made-up refusal"), errors.New("made-up bad spec")
	routes := []routed{{id: 10, shard: 0}, {id: 11, shard: 1}, {err: badSpec}, {id: 12, shard: 0}, {id: 13, shard: 1}}
	res := []serve.BatchResult{{IDs: []uint64{10, 12}, Shed: 1, Slot: 3}, {}}
	got, err := mergeShards(routes, res, []error{nil, refusal})
	want := serve.BatchResult{IDs: []uint64{10, 12}, Shed: 1, Slot: 3,
		Refused: []serve.Refusal{{Index: 1, Err: refusal}, {Index: 2, Err: badSpec}, {Index: 4, Err: refusal}}}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("merge = %+v, %v; want %+v", got, err, want)
	}
	if _, err := mergeShards(routes, make([]serve.BatchResult, 2), []error{refusal, refusal}); err != refusal {
		t.Fatalf("merge of a batch every shard refused fails with %v, want the shards' refusal", err)
	}

	c, err := New(Config{Net: allocTestNetwork(t), Shards: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer func() { _ = c.Stop() }()
	// An idle engine exits as soon as it drains; its refusal then says so.
	if err := c.nodes[1].eng.Drain(); err != nil && !errors.Is(err, serve.ErrStopped) {
		t.Fatal(err)
	}
	_, refused := c.nodes[1].eng.SubmitBatch([]serve.RequestSpec{{AccessStation: 2}})
	if refused == nil {
		t.Fatal("the drained shard accepted a request")
	}
	srv := httptest.NewServer(Handler(c))
	defer srv.Close()
	// Stations 0,1 are shard 0's; 2,3 the refusing shard 1's.
	body := strings.Join([]string{
		`{"accessStation":0}`,
		`{"accessStation":2}`,
		`{"accessStation":9}`,
		`{"accessStation":1}`,
		`{"accessStation":3}`,
	}, "\n") + "\n"
	resp, err := http.Post(srv.URL+"/v1/requests:batch", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch -> %d: %s", resp.StatusCode, out)
	}
	var br struct {
		Accepted int               `json:"accepted"`
		IDs      []uint64          `json:"ids"`
		Errors   []serve.LineError `json:"errors"`
	}
	if err := json.Unmarshal(out, &br); err != nil {
		t.Fatal(err)
	}
	// The four valid lines took ids 0..3; shard 1 refused lines 2 and 5.
	if br.Accepted != 2 || !reflect.DeepEqual(br.IDs, []uint64{0, 2}) {
		t.Fatalf("batch response %s: want ids [0 2] accepted", out)
	}
	if len(br.Errors) != 3 {
		t.Fatalf("line errors %+v, want lines 2, 3 and 5", br.Errors)
	}
	for i, w := range []struct {
		line int
		text string
	}{{2, refused.Error()}, {3, "access station 9"}, {5, refused.Error()}} {
		if got := br.Errors[i]; got.Line != w.line || !strings.Contains(got.Error, w.text) {
			t.Fatalf("line error %d = %+v, want line %d mentioning %q", i, got, w.line, w.text)
		}
	}
}
