package oracle

import (
	"fmt"
	"math"
	"math/rand"

	"mecoffload/internal/lp"
)

// DiffObjectives compares two objective values under a relative tolerance
// anchored at magnitude 1, the convention the solver tests use.
func DiffObjectives(what string, a, b, tol float64) error {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	if math.Abs(a-b) > tol*scale {
		return fmt.Errorf("oracle: %s objectives diverge: %.9g vs %.9g", what, a, b)
	}
	return nil
}

// DiffDense solves the problem with the production sparse revised simplex
// and with the reference dense tableau simplex, and requires the two to
// agree on status and (when optimal) objective. Iteration-limited runs on
// either side are inconclusive and pass vacuously.
func DiffDense(p *lp.Problem, tol float64) error {
	prod, err := p.Solve()
	if err != nil {
		return fmt.Errorf("oracle: production solve: %w", err)
	}
	ref, err := SolveDense(p.Dense(), 0)
	if err != nil {
		return fmt.Errorf("oracle: reference solve: %w", err)
	}
	if prod.Status == lp.StatusIterLimit || ref.Status == lp.StatusIterLimit {
		return nil
	}
	if prod.Status != ref.Status {
		return fmt.Errorf("oracle: status diverges: production %v, dense reference %v", prod.Status, ref.Status)
	}
	if prod.Status != lp.StatusOptimal {
		return nil
	}
	return DiffObjectives("sparse vs dense", prod.Objective, ref.Objective, tol)
}

// DiffWarmCold solves the problem cold and warm-started from a basis
// captured on a structurally similar problem, and requires the two solves
// to agree on status and (when optimal) objective. Warm starts read
// basis entries by position, silently dropping those out of range, so any
// basis is legal input — the solves must still converge to the same
// optimum. Iteration-limited runs pass vacuously.
func DiffWarmCold(p *lp.Problem, basis *lp.Basis, tol float64) error {
	cold, err := p.Solve()
	if err != nil {
		return fmt.Errorf("oracle: cold solve: %w", err)
	}
	warm, err := p.SolveWithOptions(lp.SolveOptions{WarmStart: basis})
	if err != nil {
		return fmt.Errorf("oracle: warm solve: %w", err)
	}
	if cold.Status == lp.StatusIterLimit || warm.Status == lp.StatusIterLimit {
		return nil
	}
	if cold.Status != warm.Status {
		return fmt.Errorf("oracle: status diverges: cold %v, warm %v", cold.Status, warm.Status)
	}
	if cold.Status != lp.StatusOptimal {
		return nil
	}
	return DiffObjectives("warm vs cold", warm.Objective, cold.Objective, tol)
}

// AssignLPConfig shapes RandomAssignLP's instances after the paper's
// relaxation: assignment rows y[j,·] <= 1 and station capacity rows with
// demand-scaled coefficients. TightenCapacity drops every capacity RHS so
// far that instances are frequently infeasible once a minimum-admission
// row is added, exercising the phase-1 path of both solvers.
type AssignLPConfig struct {
	Requests, Stations int
	// MinAdmitted, when positive, adds sum_j,i y[j,i] >= MinAdmitted —
	// a GE row that can make the instance infeasible.
	MinAdmitted float64
	// TightenCapacity scales the capacity right-hand sides down.
	TightenCapacity float64
}

// RandomAssignLP generates a random LP shaped like the scheduling
// relaxation (constraints (9)-(12) without the slot index): rewards in
// the workload's unit-reward range, per-request demands in the expected
// MHz range of the canonical pipeline, station capacities like
// mec.RandomNetwork's. The same rng and config always produce the same
// problem.
func RandomAssignLP(rng *rand.Rand, cfg AssignLPConfig) *lp.Problem {
	p := lp.NewProblem(lp.Maximize)
	tighten := cfg.TightenCapacity
	if tighten <= 0 {
		tighten = 1
	}
	type yVar struct {
		v       lp.Var
		station int
		demand  float64
	}
	var vars []yVar
	all := make([]lp.Term, 0, cfg.Requests*cfg.Stations)
	for j := 0; j < cfg.Requests; j++ {
		reward := 12 + 3*rng.Float64()
		demand := 600 + 400*rng.Float64()
		var terms []lp.Term
		for i := 0; i < cfg.Stations; i++ {
			// Mirror the delay filter: not every (request, station)
			// pair gets a variable.
			if rng.Float64() < 0.25 {
				continue
			}
			v := p.AddVariable(fmt.Sprintf("y[%d,%d]", j, i), reward)
			vars = append(vars, yVar{v: v, station: i, demand: demand})
			terms = append(terms, lp.Term{Var: v, Coef: 1})
			all = append(all, lp.Term{Var: v, Coef: 1})
		}
		if len(terms) > 0 {
			if _, err := p.AddConstraint(fmt.Sprintf("assign[%d]", j), lp.LE, 1, terms...); err != nil {
				panic(err) // fresh names on a fresh problem cannot collide
			}
		}
	}
	for i := 0; i < cfg.Stations; i++ {
		var terms []lp.Term
		for _, yv := range vars {
			if yv.station == i {
				terms = append(terms, lp.Term{Var: yv.v, Coef: yv.demand})
			}
		}
		if len(terms) == 0 {
			continue
		}
		capMHz := (3000 + 600*rng.Float64()) * tighten
		if _, err := p.AddConstraint(fmt.Sprintf("cap[%d]", i), lp.LE, capMHz, terms...); err != nil {
			panic(err)
		}
	}
	if cfg.MinAdmitted > 0 && len(all) > 0 {
		if _, err := p.AddConstraint("minAdmit", lp.GE, cfg.MinAdmitted, all...); err != nil {
			panic(err)
		}
	}
	return p
}
