package lp

import (
	"strings"
	"testing"
)

func parseString(t *testing.T, src string) *ParsedProblem {
	t.Helper()
	pp, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return pp
}

func TestParseAndSolve(t *testing.T) {
	pp := parseString(t, `
# the running example
max: 3 x + 2 y
c1: x + y <= 4
c2: x + 3 y <= 6
`)
	if pp.HasInteger {
		t.Fatal("no int declaration expected")
	}
	sol, err := pp.Problem.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || !almostEq(sol.Objective, 12) {
		t.Fatalf("objective %v (%v), want 12", sol.Objective, sol.Status)
	}
	x, ok := pp.VarByName("x")
	if !ok {
		t.Fatal("variable x missing")
	}
	if !almostEq(sol.Value(x), 4) {
		t.Fatalf("x = %v, want 4", sol.Value(x))
	}
	if _, ok := pp.VarByName("zebra"); ok {
		t.Fatal("unknown variable resolved")
	}
}

func TestParseIntegerKnapsack(t *testing.T) {
	pp := parseString(t, `
min: -60 a - 100 b - 120 c
cap: 10 a + 20 b + 30 c <= 50
ua: a <= 1
ub: b <= 1
uc: c <= 1
int a b c
`)
	if !pp.HasInteger {
		t.Fatal("int declaration lost")
	}
	sol, err := pp.Problem.SolveInteger()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(sol.Objective, -220) {
		t.Fatalf("objective %v, want -220", sol.Objective)
	}
}

func TestParseSyntaxVariants(t *testing.T) {
	pp := parseString(t, `
min: 2*x + y - 0.5 z
mix: -x + 3*y >= 2
eq: z = 1
`)
	sol, err := pp.Problem.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	z, _ := pp.VarByName("z")
	if !almostEq(sol.Value(z), 1) {
		t.Fatalf("z = %v, want 1 (equality row)", sol.Value(z))
	}
	if len(pp.RowNames) != 2 || pp.RowNames[0] != "mix" {
		t.Fatalf("row names %v", pp.RowNames)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"no objective", "c: x <= 1\n"},
		{"duplicate objective", "max: x\nmin: x\nc: x <= 1\n"},
		{"no operator", "max: x\nc: x 4\n"},
		{"bad rhs", "max: x\nc: x <= banana\n"},
		{"bad token", "max: x\nc: x + $ <= 1\n"},
		{"dangling coefficient", "max: x\nc: x + 3 <= 1\n"},
		{"missing colon", "max: x\nx <= 1\n"},
		{"double number", "max: 3 4 x\nc: x <= 1\n"},
		{"terms without a sign", "max: 3 x y\nc: x <= 1\n"},
		{"number after a term without a sign", "max: x\nc: x 2 y <= 1\n"},
		{"dangling sign", "max: 3 x\nc1: x + y - <= 4\n"},
		{"sign alone", "max: +\nc: x <= 1\n"},
		{"dangling sign and terms without one", "max: 3 x y\nc1: x + y - <= 4\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(tc.src)); err == nil {
				t.Fatalf("want error for %q", tc.src)
			}
		})
	}
}

func TestParseRepeatedVariableAccumulates(t *testing.T) {
	pp := parseString(t, `
max: x + x
c: x <= 3
`)
	sol, err := pp.Problem.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(sol.Objective, 6) {
		t.Fatalf("objective %v, want 6 (2x at x=3)", sol.Objective)
	}
}

func TestParseIntOnlyVariable(t *testing.T) {
	// An int declaration for a variable never used elsewhere must still
	// register the variable.
	pp := parseString(t, `
max: x
c: x <= 2
int ghost
`)
	if _, ok := pp.VarByName("ghost"); !ok {
		t.Fatal("declared-but-unused integer variable dropped")
	}
}

// TestParseExponents: a coefficient may carry an exponent with either
// sign, which is no term sign ("2e-3 x" is 0.002 x), while a "-" after a
// name's "e" is one.
func TestParseExponents(t *testing.T) {
	pp := parseString(t, "max: 2e-3 x + 1.5E+1 y - .5e-1 z - e -2 re\nc: x + y + z + e + re <= 1\n")
	want := map[string]float64{"x": 2e-3, "y": 15, "z": -0.05, "e": -1, "re": -2}
	for name, coef := range want {
		v, ok := pp.VarByName(name)
		if !ok {
			t.Fatalf("variable %s missing", name)
		}
		if got := pp.Problem.cols[v].obj; got != coef {
			t.Errorf("objective coefficient of %s = %v, want %v", name, got, coef)
		}
	}
}
