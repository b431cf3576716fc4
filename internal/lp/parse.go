package lp

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ErrParse reports malformed LP text input.
var ErrParse = errors.New("lp: parse error")

// ParsedProblem couples a parsed Problem with its variable names.
type ParsedProblem struct {
	// Problem is ready to Solve (or SolveInteger when integer variables
	// were declared).
	Problem *Problem
	// Names maps Var indices to source names.
	Names []string
	// RowNames maps constraint indices to source labels.
	RowNames []string
	// HasInteger reports whether any "int" declaration appeared.
	HasInteger bool
}

// VarByName returns the handle of a named variable.
func (pp *ParsedProblem) VarByName(name string) (Var, bool) {
	for i, n := range pp.Names {
		if n == name {
			return Var(i), true
		}
	}
	return 0, false
}

// Parse reads a linear program in a small text format:
//
//	# comment
//	max: 3 x + 2 y
//	c1: x + y <= 4
//	c2: x + 3 y <= 6
//	int x
//
// The first directive line must be "max:" or "min:" followed by a linear
// expression. Each constraint line is "label: expr OP rhs" with OP one of
// <=, >=, =. An optional "int" line lists integer variables. Variables are
// implicitly >= 0, coefficients may use "*" (e.g. "3*x") and an exponent
// (e.g. "2e-3 x"), and unnamed coefficients default to 1. Every term after
// the first follows a "+" or "-", and every sign is followed by a term:
// "3 x y" and "x + y -" are errors.
func Parse(r io.Reader) (*ParsedProblem, error) {
	scanner := bufio.NewScanner(r)
	var prob *Problem
	pp := &ParsedProblem{}
	varIdx := map[string]Var{}
	// Integer declarations can precede variable use, so collect names and
	// apply at the end via rebuild. Simpler: collect objective/constraint
	// lines first, int names separately, then build.
	type rawRow struct {
		label string
		expr  string
		op    Op
		rhs   float64
	}
	var (
		objExpr  string
		sense    Sense
		rows     []rawRow
		intNames = map[string]bool{}
		lineNo   int
		sawObj   bool
	)

	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "//") {
			continue
		}
		lower := strings.ToLower(line)
		switch {
		case strings.HasPrefix(lower, "max:"), strings.HasPrefix(lower, "min:"):
			if sawObj {
				return nil, fmt.Errorf("%w: line %d: duplicate objective", ErrParse, lineNo)
			}
			sawObj = true
			if strings.HasPrefix(lower, "max:") {
				sense = Maximize
			} else {
				sense = Minimize
			}
			objExpr = strings.TrimSpace(line[4:])
		case strings.HasPrefix(lower, "int "), lower == "int":
			for _, name := range strings.Fields(line)[1:] {
				intNames[name] = true
			}
		default:
			colon := strings.Index(line, ":")
			if colon < 0 {
				return nil, fmt.Errorf("%w: line %d: expected 'label: expr op rhs'", ErrParse, lineNo)
			}
			label := strings.TrimSpace(line[:colon])
			body := strings.TrimSpace(line[colon+1:])
			op, lhs, rhsStr, err := splitConstraint(body)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: %v", ErrParse, lineNo, err)
			}
			rhs, err := strconv.ParseFloat(strings.TrimSpace(rhsStr), 64)
			if err != nil {
				return nil, fmt.Errorf("%w: line %d: bad rhs %q", ErrParse, lineNo, rhsStr)
			}
			rows = append(rows, rawRow{label: label, expr: lhs, op: op, rhs: rhs})
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	if !sawObj {
		return nil, fmt.Errorf("%w: missing objective (max:/min:)", ErrParse)
	}

	prob = NewProblem(sense)
	getVar := func(name string, obj float64) Var {
		if v, ok := varIdx[name]; ok {
			return v
		}
		var v Var
		if intNames[name] {
			v = prob.AddIntegerVariable(name, 0)
		} else {
			v = prob.AddVariable(name, 0)
		}
		varIdx[name] = v
		pp.Names = append(pp.Names, name)
		_ = obj
		return v
	}

	objTerms, err := parseExpr(objExpr, getVar)
	if err != nil {
		return nil, fmt.Errorf("%w: objective: %v", ErrParse, err)
	}
	// Objective coefficients must be set on the columns; rebuild via a
	// dedicated pass (AddVariable fixed obj=0 above).
	for _, t := range objTerms {
		prob.cols[t.Var].obj += t.Coef
	}

	for _, rr := range rows {
		terms, err := parseExpr(rr.expr, getVar)
		if err != nil {
			return nil, fmt.Errorf("%w: constraint %q: %v", ErrParse, rr.label, err)
		}
		if _, err := prob.AddConstraint(rr.label, rr.op, rr.rhs, terms...); err != nil {
			return nil, err
		}
		pp.RowNames = append(pp.RowNames, rr.label)
	}
	// Integer names that never appeared still become variables so the
	// declaration is not silently dropped.
	for name := range intNames {
		getVar(name, 0)
	}
	pp.Problem = prob
	pp.HasInteger = len(intNames) > 0
	return pp, nil
}

// splitConstraint separates "expr OP rhs".
func splitConstraint(body string) (Op, string, string, error) {
	for _, cand := range []struct {
		tok string
		op  Op
	}{{"<=", LE}, {">=", GE}, {"=", EQ}} {
		if i := strings.Index(body, cand.tok); i >= 0 {
			return cand.op, strings.TrimSpace(body[:i]), body[i+len(cand.tok):], nil
		}
	}
	return 0, "", "", errors.New("no comparison operator")
}

// parseExpr parses "3 x + 2*y - z" into terms. A term is an optional
// coefficient and a variable; every term after the first follows a sign,
// and every sign is followed by a term.
func parseExpr(expr string, getVar func(string, float64) Var) ([]Term, error) {
	fields := exprTokens(expr)
	if len(fields) == 0 {
		return nil, errors.New("empty expression")
	}
	var terms []Term
	sign := 1.0
	coef := 1.0
	haveCoef, haveSign := false, false
	for _, f := range fields {
		switch f {
		case "+", "-":
			if f == "-" {
				sign = -sign
			}
			haveSign = true
			continue
		}
		if len(terms) > 0 && !haveSign {
			return nil, fmt.Errorf("no sign between two terms near %q", f)
		}
		if v, err := strconv.ParseFloat(f, 64); err == nil {
			if haveCoef {
				return nil, fmt.Errorf("two consecutive numbers near %q", f)
			}
			coef = v
			haveCoef = true
			continue
		}
		if !isIdent(f) {
			return nil, fmt.Errorf("bad token %q", f)
		}
		terms = append(terms, Term{Var: getVar(f, 0), Coef: sign * coef})
		sign, coef, haveCoef, haveSign = 1, 1, false, false
	}
	if haveCoef {
		return nil, errors.New("dangling coefficient")
	}
	if haveSign {
		return nil, errors.New("dangling sign")
	}
	return terms, nil
}

// exprTokens splits an expression into signs, numbers and names: blanks
// and "*" separate tokens, and "+" and "-" are tokens of their own except
// in a number's exponent ("2e-3").
func exprTokens(expr string) []string {
	var out []string
	for _, f := range strings.Fields(strings.ReplaceAll(expr, "*", " ")) {
		start := 0
		for i := 0; i < len(f); i++ {
			if f[i] != '+' && f[i] != '-' {
				continue
			}
			if i > start && (f[i-1] == 'e' || f[i-1] == 'E') && strings.IndexByte("0123456789.", f[start]) >= 0 {
				continue // an exponent's sign
			}
			if i > start {
				out = append(out, f[start:i])
			}
			out = append(out, f[i:i+1])
			start = i + 1
		}
		if start < len(f) {
			out = append(out, f[start:])
		}
	}
	return out
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
