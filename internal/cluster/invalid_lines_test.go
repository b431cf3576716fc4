package cluster_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"mecoffload/internal/cluster"
	"mecoffload/internal/mec"
	"mecoffload/internal/serve"
)

// badSpecs are specs checkSpec refuses, one of each kind a client sends.
var badSpecs = []serve.RequestSpec{
	{AccessStation: 9},                    // access station out of range
	{AccessStation: 1, DurationSlots: -3}, // negative duration
	{AccessStation: 0, Outcomes: []serve.OutcomeSpec{{RateMBs: 40, Prob: 0.5, Reward: 100}}}, // mass 0.5
	{AccessStation: 2, Tasks: []serve.TaskSpec{{Name: "render", OutputKb: 64, WorkMS: -1}}},  // refused task
}

// mixedLines is a batch body of four valid lines with a bad spec after
// each but the last, and the line errors a client must read for it: each
// bad line's number and serve.ValidateSpec's text.
func mixedLines(t *testing.T, net *mec.Network) (string, []serve.LineError) {
	t.Helper()
	var (
		b    strings.Builder
		errs []serve.LineError
		line int
	)
	write := func(spec serve.RequestSpec) {
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(data)
		b.WriteByte('\n')
		line++
	}
	for i := 0; i < 4; i++ {
		write(serve.RequestSpec{AccessStation: i, DurationSlots: 2, Outcomes: []serve.OutcomeSpec{{RateMBs: 40, Prob: 1, Reward: 300}}})
		if i < len(badSpecs) {
			write(badSpecs[i])
			err := serve.ValidateSpec(net, badSpecs[i])
			if err == nil {
				t.Fatalf("%+v passes ValidateSpec", badSpecs[i])
			}
			errs = append(errs, serve.LineError{Line: line, Error: err.Error()})
		}
	}
	return b.String(), errs
}

// allBadLines is a body of the bad specs alone and its line errors.
func allBadLines(t *testing.T, net *mec.Network) (string, []serve.LineError) {
	t.Helper()
	var (
		b    strings.Builder
		errs []serve.LineError
	)
	for i, spec := range badSpecs {
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(data)
		b.WriteByte('\n')
		errs = append(errs, serve.LineError{Line: i + 1, Error: serve.ValidateSpec(net, spec).Error()})
	}
	return b.String(), errs
}

// TestInvalidLinesTakeNoID is the contract of a line the router's check
// refuses, at 1 and 2 shards, on islands (no route builds a candidate
// list) and bridged islands (every route at 2 shards does), over HTTP and
// through ReplayNDJSON: each bad line is an error of its line with exactly
// serve.ValidateSpec's text, it takes no id, the valid lines' ids stay
// dense, and a batch of bad lines alone answers 200 with its errors. A
// direct SubmitBatch lists a bad spec in Refused and takes the rest.
func TestInvalidLinesTakeNoID(t *testing.T) {
	for _, topo := range []struct {
		name string
		net  func(t testing.TB) *mec.Network
	}{
		{"islands", func(t testing.TB) *mec.Network { return islandNetwork(t, 2, 2) }},
		{"bridged", func(t testing.TB) *mec.Network { return bridgedNetwork(t, 2, 2) }},
	} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d/http", topo.name, shards), func(t *testing.T) {
				net := topo.net(t)
				c, err := cluster.New(parityConfig(net, shards))
				if err != nil {
					t.Fatal(err)
				}
				c.Start()
				srv := httptest.NewServer(cluster.Handler(c))
				defer func() {
					srv.Close()
					_ = c.Stop()
				}()
				submit := func(body string) batchResponse {
					t.Helper()
					resp, out := postNDJSON(t, srv.URL, body)
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("batch -> %d: %s", resp.StatusCode, out)
					}
					var br batchResponse
					if err := json.Unmarshal(out, &br); err != nil {
						t.Fatal(err)
					}
					return br
				}
				body, wantErrs := mixedLines(t, net)
				br := submit(body)
				if want := (batchResponse{Accepted: 4, IDs: []uint64{0, 1, 2, 3}, Errors: wantErrs}); !reflect.DeepEqual(br, want) {
					t.Fatalf("mixed batch answered %+v, want %+v", br, want)
				}
				body, wantErrs = allBadLines(t, net)
				br = submit(body)
				if want := (batchResponse{Errors: wantErrs}); !reflect.DeepEqual(br, want) {
					t.Fatalf("all-invalid batch answered %+v, want %+v", br, want)
				}
				body, _ = mixedLines(t, net)
				if br := submit(body); !reflect.DeepEqual(br.IDs, []uint64{4, 5, 6, 7}) {
					t.Fatalf("the next batch took ids %v, want [4 5 6 7]", br.IDs)
				}

				// The same refusals, straight from SubmitBatch.
				good := serve.RequestSpec{AccessStation: 1, DurationSlots: 2}
				res, err := c.SubmitBatch([]serve.RequestSpec{badSpecs[0], good, badSpecs[3]})
				if err != nil || !reflect.DeepEqual(res.IDs, []uint64{8}) || len(res.Refused) != 2 ||
					res.Refused[0].Index != 0 || res.Refused[1].Index != 2 ||
					!errors.Is(res.Refused[0].Err, serve.ErrBadSpec) || !errors.Is(res.Refused[1].Err, serve.ErrBadSpec) {
					t.Fatalf("SubmitBatch = %+v, %v; want id 8 and specs 0 and 2 refused with ErrBadSpec", res, err)
				}
				res, err = c.SubmitBatch(badSpecs)
				if err != nil || len(res.IDs) != 0 || len(res.Refused) != len(badSpecs) {
					t.Fatalf("SubmitBatch of bad specs alone = %+v, %v; want every spec refused and no error", res, err)
				}
				if _, _, err := c.Submit(badSpecs[1]); !errors.Is(err, serve.ErrBadSpec) {
					t.Fatalf("Submit of a bad spec: %v, want ErrBadSpec", err)
				}
				if rs := c.RouterStats(); rs.Routed != 9 {
					t.Fatalf("the router handed out %d ids, want 9", rs.Routed)
				}
			})

			t.Run(fmt.Sprintf("%s/shards=%d/replay", topo.name, shards), func(t *testing.T) {
				net := topo.net(t)
				c, err := cluster.New(parityConfig(net, shards))
				if err != nil {
					t.Fatal(err)
				}
				defer func() { _ = c.Stop() }()
				mixed, mixedErrs := mixedLines(t, net)
				bad, badErrs := allBadLines(t, net)
				// Three groups, each ended by a blank line: a group's line
				// errors are numbered from the trace line it starts on.
				var want []serve.LineError
				start := 1
				for _, group := range []struct {
					body string
					errs []serve.LineError
				}{{mixed, mixedErrs}, {bad, badErrs}, {mixed, mixedErrs}} {
					for _, le := range group.errs {
						want = append(want, serve.LineError{Line: start + le.Line - 1, Error: le.Error})
					}
					start += strings.Count(group.body, "\n") + 1
				}
				var got []serve.LineError
				st, err := cluster.ReplayNDJSON(c, strings.NewReader(mixed+"\n"+bad+"\n"+mixed), func(line int, msg string) {
					got = append(got, serve.LineError{Line: line, Error: msg})
				})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("replay line errors %+v, want %+v", got, want)
				}
				if st.Accepted != 8 || st.BadLines != len(want) {
					t.Fatalf("replay stats %+v, want 8 accepted and %d bad lines", st, len(want))
				}
				if rs := c.RouterStats(); rs.Routed != 8 {
					t.Fatalf("the router handed out %d ids, want 8", rs.Routed)
				}
			})
		}
	}
}
