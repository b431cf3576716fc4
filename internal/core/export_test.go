package core

import (
	"math/rand"
	"testing"

	"mecoffload/internal/lp"
)

// PrunedLPPair is one random LP-PT instance built twice: Pruned by buildLP,
// which writes the simplex's standard form and drops the cap rows that
// cannot bind, and Full by the reference builder, through lp.Problem, with
// every cap row kept. Their columns are the same, and the pruned rows are
// the full build's rows with the dropped ones left out, in order, so a
// row of one is found in the other by its content. ColReq holds the
// request index of each column.
type PrunedLPPair struct {
	Pruned *lp.Standard
	Full   *lp.Problem
	ColReq []int
}

// RandomPrunedLPPair draws an instance the way the builder differential
// does — random chains, ledgers, slot grids (per station in some draws),
// deadlines, waits and active subsets — under LP-PT's share cap
// C(bs_i)/|R_t|, and builds it with and without pruning. Pruned is nil
// when no variable could be built.
func RandomPrunedLPPair(t *testing.T, rng *rand.Rand) PrunedLPPair {
	t.Helper()
	net := diffNetwork(t, rng, 1+rng.Intn(3), 1+rng.Intn(4))
	reqs := diffRequests(t, rng, net, 1+rng.Intn(30))
	opts := diffOptions(rng, net, len(reqs))
	rt := len(reqs)
	if opts.active != nil {
		rt = max(1, len(opts.active))
	}
	opts.shareCapFor = func(i int) float64 { return net.Capacity(i) / float64(rt) / net.CUnit() }
	pruned, err := buildLP(net, reqs, opts)
	if err != nil {
		t.Fatal(err)
	}
	full, err := referenceBuildLP(net, reqs, opts, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned.vars) == 0 {
		return PrunedLPPair{Full: full.prob}
	}
	colReq := make([]int, len(pruned.vars))
	for idx, sv := range pruned.vars {
		colReq[idx] = sv.req
	}
	return PrunedLPPair{Pruned: pruned.std, Full: full.prob, ColReq: colReq}
}
