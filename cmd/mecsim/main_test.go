package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleExperiment(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-experiment", "fig4", "-reps", "1", "-seed", "5"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "Fig. 4") || !strings.Contains(got, "DynamicRR") {
		t.Fatalf("missing figure output:\n%.300s", got)
	}
}

func TestRunWritesCSV(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "out.csv")
	var out strings.Builder
	err := run([]string{"-experiment", "fig6", "-reps", "1", "-csv", csv}, &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "fig6,") {
		t.Fatalf("CSV content wrong:\n%.200s", data)
	}
}

// TestRunUnknownExperiment: an unknown id is refused before anything runs
// or a CSV file is made, with an error that lists every id.
func TestRunUnknownExperiment(t *testing.T) {
	var out strings.Builder
	csv := filepath.Join(t.TempDir(), "out.csv")
	err := run([]string{"-experiment", "fig99", "-csv", csv}, &out)
	if err == nil || !strings.HasPrefix(err.Error(), `unknown experiment "fig99"`) {
		t.Fatalf("err = %v, want an unknown-experiment error", err)
	}
	for _, e := range experiments {
		if !strings.Contains(err.Error(), e.id) {
			t.Errorf("error %q does not list %s", err, e.id)
		}
	}
	if _, serr := os.Stat(csv); !os.IsNotExist(serr) {
		t.Errorf("an unknown experiment made %s (%v)", csv, serr)
	}
}

// TestRunRejectsNegativeSizes pins the flag contract: a negative size is
// refused before anything runs, with an error that starts with the flag
// (fig3 used to panic in makeslice, regret to print an all-zero table).
func TestRunRejectsNegativeSizes(t *testing.T) {
	for _, flag := range []string{"-reps", "-stations", "-requests", "-horizon"} {
		for _, exp := range []string{"fig3", "regret"} {
			var out strings.Builder
			err := run([]string{"-experiment", exp, flag, "-1"}, &out)
			if err == nil || !strings.HasPrefix(err.Error(), flag+" -1") {
				t.Errorf("%s %s -1: err = %v, want one starting with %q", exp, flag, err, flag)
			}
			if out.Len() != 0 {
				t.Errorf("%s %s -1 printed %q", exp, flag, out.String())
			}
		}
	}
}
