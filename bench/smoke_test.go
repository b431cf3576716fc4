package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesCode pins BENCHMARK.json to the tables the command
// reports from: one edited without the other fails here.
func TestContractMatchesCode(t *testing.T) {
	c := readContract(t)
	if want := []string{"go", "run", "./bench"}; !reflect.DeepEqual(c.Command, want) {
		t.Errorf("command %v, want %v", c.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(c.Paths, want) {
		t.Errorf("paths %v, want %v", c.Paths, want)
	}
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the command's default is %d", c.RunSeconds, defaultSeconds)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)",
				i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.ContainsRune(w.why, '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	same := func(kind string, got []contractMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, code has %+v", kind, i, g, d)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound):
				t.Errorf("%s: bound differs from the code's %g", d.name, d.bound)
			case bounded && (d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s: bound %g outside (0, 0.25]", d.name, d.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric carries no bound", d.name)
			}
		}
	}
	same("end_to_end", c.EndToEnd, endToEndMetrics, true)
	same("per_layer", c.PerLayer, perLayerMetrics, false)
}

// TestSmoke runs every workload end to end at 20 timed slots, traced, and
// checks that both result lines carry exactly the contract's metrics —
// each once, with its unit, finite — and that every output check passes.
func TestSmoke(t *testing.T) {
	opts := runOptions{seed: 7, slots: 20, trace: true, warmup: 20, rounds: 1, outDir: t.TempDir()}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(w, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.timed.checkErr != nil || res.traced.checkErr != nil {
				t.Fatalf("output check: timed %v, traced %v", res.timed.checkErr, res.traced.checkErr)
			}
			if res.timed.failed != 0 || res.timed.attempted < 1 {
				t.Fatalf("%d of %d operations failed: %s", res.timed.failed, res.timed.attempted, res.timed.firstFailure)
			}
			if _, err := os.Stat(res.traced.spanFile); err != nil {
				t.Errorf("span file: %v", err)
			}
			checkLine(t, &result{timed: res.timed}, endToEndMetrics, true)
			checkLine(t, res, perLayerMetrics, false)
		})
	}
}

// checkLine decodes one result line and compares it with a metric table.
func checkLine(t *testing.T, r *result, defs []metricDef, endToEnd bool) {
	t.Helper()
	line, err := r.jsonLine()
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct   *bool                 `json:"correct"`
		Attempted *int                  `json:"attempted"`
		Failed    *int                  `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(string(line)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("%s: %v", line, err)
	}
	if got.Correct == nil || !*got.Correct || got.Attempted == nil || got.Failed == nil {
		t.Fatalf("result line lacks a key or reports incorrect outputs: %s", line)
	}
	if len(got.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, the contract lists %d", len(got.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := got.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: not emitted", d.name)
		case m.Unit != d.unit:
			t.Errorf("%s: unit %q, want %q", d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %v", d.name, m.Value)
		case endToEnd && m.Value <= 0:
			t.Errorf("%s: an end-to-end metric must never be 0, got %v", d.name, m.Value)
		case m.Value < 0 && !strings.Contains(d.name, "_self_"):
			// A self time is a difference of two twins' medians and may dip
			// below zero by noise; nothing else may.
			t.Errorf("%s: negative value %v", d.name, m.Value)
		}
	}
}

// TestCalibrator pins the speed correction's edges: no burst means no
// correction, bursts are spaced by calibEvery, and correction forgets the
// bursts it has used.
func TestCalibrator(t *testing.T) {
	c := new(calibrator)
	if div, f := c.correction(); div != 1 || f != 1 {
		t.Fatalf("no bursts: correction %v at factor %v, want 1 and 1", div, f)
	}
	c.tick()
	c.tick() // calibEvery has not passed: no second burst
	if c.n != 1 || c.spent <= 0 {
		t.Fatalf("after two immediate ticks: %d bursts, %v spent, want one burst", c.n, c.spent)
	}
	div, f := c.correction()
	if f <= 0 || div != 1-speedShare+speedShare*f {
		t.Fatalf("correction %v at factor %v", div, f)
	}
	if div, f := c.correction(); div != 1 || f != 1 {
		t.Fatalf("bursts were not forgotten: correction %v at factor %v", div, f)
	}
}
