package main

import (
	"fmt"
	"strings"
	"testing"
)

func TestRunSolvesFromStdin(t *testing.T) {
	in := strings.NewReader("max: 3 x + 2 y\nc1: x + y <= 4\nc2: x + 3 y <= 6\n")
	var out strings.Builder
	if err := run([]string{"-duals"}, in, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"status: optimal", "objective: 12", "x = 4", "dual[c1] = 3"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunInteger(t *testing.T) {
	in := strings.NewReader("max: 60 a + 100 b + 120 c\ncap: 10 a + 20 b + 30 c <= 50\nua: a <= 1\nub: b <= 1\nuc: c <= 1\nint a b c\n")
	var out strings.Builder
	if err := run(nil, in, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "objective: 220") {
		t.Fatalf("wrong integer objective:\n%s", out.String())
	}
}

// TestRunNodeCappedIncumbent: max Σx over 21 binaries with 2Σx <= 21
// has its relaxation at 10.5 until more than half the variables are
// fixed, so branch and bound exhausts its 100 000 nodes. The incumbent
// (10, found by flooring the root) is printed under the iteration-limit
// status, not as an optimum.
func TestRunNodeCappedIncumbent(t *testing.T) {
	if testing.Short() {
		t.Skip("100 000 branch-and-bound nodes")
	}
	var src strings.Builder
	src.WriteString("max: x0")
	for i := 1; i < 21; i++ {
		fmt.Fprintf(&src, " + x%d", i)
	}
	src.WriteString("\nc: 2 x0")
	for i := 1; i < 21; i++ {
		fmt.Fprintf(&src, " + 2 x%d", i)
	}
	src.WriteString(" <= 21\n")
	for i := 0; i < 21; i++ {
		fmt.Fprintf(&src, "u%d: x%d <= 1\nint x%d\n", i, i, i)
	}
	var out strings.Builder
	if err := run(nil, strings.NewReader(src.String()), &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"status: iteration-limit", "objective: 10", "nodes: 100000"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunRelaxFlag(t *testing.T) {
	in := strings.NewReader("max: x\nc: 2 x <= 3\nint x\n")
	var out strings.Builder
	if err := run([]string{"-relax"}, in, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "objective: 1.5") {
		t.Fatalf("relaxation not solved:\n%s", out.String())
	}
}

func TestRunParseError(t *testing.T) {
	in := strings.NewReader("nonsense\n")
	var out strings.Builder
	if err := run(nil, in, &out); err == nil {
		t.Fatal("want parse error")
	}
}

func TestRunMissingFile(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"/no/such/file.lp"}, strings.NewReader(""), &out); err == nil {
		t.Fatal("want error for missing file")
	}
}
