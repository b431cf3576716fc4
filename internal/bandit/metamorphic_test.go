package bandit

import (
	"testing"

	"mecoffload/internal/rnd"
)

// Metamorphic invariance: relabeling the arms must not change what the
// policy does, only what it calls it. For the deterministic argmax
// policy UCB1 the property is exact per step once each arm has been
// primed once in a label-agnostic order: if run B sees arm sigma(a)
// whenever run A would see arm a, then B's t-th decision is sigma(A's
// t-th decision).
//
// Rewards come from a pinned rnd stream shared step-by-step between the
// two runs (common random numbers), keyed by the underlying arm so the
// permuted run observes exactly the permuted reward function.

// metaReward returns the deterministic reward of underlying arm u at
// step i: distinct per arm, drifting mid-stream, with shared per-step
// noise from the derived seed (amp 0 disables the noise).
func metaReward(u, i int, amp float64, noise []float64) float64 {
	base := float64(u + 1)
	if i >= 150 {
		base = float64(7 - u)
	}
	return base + amp*noise[i]
}

func metaNoise(steps int) []float64 {
	rng := rnd.New(11, "metamorphic")
	out := make([]float64, steps)
	for i := range out {
		out[i] = rng.Float64()
	}
	return out
}

// prime plays every underlying arm exactly once, in underlying order, so
// both runs leave the forced-exploration phase with identical per-arm
// statistics regardless of label order.
func prime(p Policy, perm []int, amp float64, noise []float64) {
	for u := 0; u < p.NumArms(); u++ {
		p.Update(perm[u], metaReward(u, 0, amp, noise))
	}
}

func TestMetamorphicArmRelabeling(t *testing.T) {
	const k, steps = 5, 300
	perm := []int{3, 0, 4, 1, 2} // label of underlying arm u in run B
	identity := []int{0, 1, 2, 3, 4}
	inv := make([]int, k)
	for u, l := range perm {
		inv[l] = u
	}
	noise := metaNoise(steps + 1)

	const amp = 0.1
	t.Run("ucb1", func(t *testing.T) {
		a, err := NewUCB1(k)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewUCB1(k)
		if err != nil {
			t.Fatal(err)
		}
		prime(a, identity, amp, noise)
		prime(b, perm, amp, noise)
		for i := 1; i <= steps; i++ {
			armA := a.Select()
			armB := b.Select()
			if want := perm[armA]; armB != want {
				t.Fatalf("step %d: run A played %d, so run B must play %d, got %d",
					i, armA, want, armB)
			}
			a.Update(armA, metaReward(armA, i, amp, noise))
			b.Update(armB, metaReward(inv[armB], i, amp, noise))
		}
	})
}

// TestMetamorphicSERelabeling: successive elimination's round-robin
// cursor walks label order, so per-step equality does not hold — but the
// learning OUTCOME must commute with the permutation: the surviving arm
// set and the best arm map through sigma, and per-arm play counts match
// on underlying arms.
func TestMetamorphicSERelabeling(t *testing.T) {
	const k, steps = 5, 400
	perm := []int{3, 0, 4, 1, 2}
	noise := metaNoise(steps + 1)

	run := func(labelOf []int) *SuccessiveElimination {
		se, err := NewSuccessiveElimination(k)
		if err != nil {
			t.Fatal(err)
		}
		inv := make([]int, k)
		for u, l := range labelOf {
			inv[l] = u
		}
		for i := 1; i <= steps; i++ {
			label := se.Select()
			se.Update(label, metaReward(inv[label], i, 0.1, noise))
		}
		return se
	}
	a := run([]int{0, 1, 2, 3, 4})
	b := run(perm)
	if a.NumActive() != b.NumActive() {
		t.Fatalf("surviving arm counts differ: %d vs %d", a.NumActive(), b.NumActive())
	}
	for u := 0; u < k; u++ {
		if a.Active(u) != b.Active(perm[u]) {
			t.Errorf("underlying arm %d: active %v in A but label %d active %v in B",
				u, a.Active(u), perm[u], b.Active(perm[u]))
		}
		if a.Plays(u) != b.Plays(perm[u]) {
			t.Errorf("underlying arm %d: %d plays in A, %d in B",
				u, a.Plays(u), b.Plays(perm[u]))
		}
	}
	if perm[a.BestArm()] != b.BestArm() {
		t.Errorf("best arm %d in A should map to %d, B says %d",
			a.BestArm(), perm[a.BestArm()], b.BestArm())
	}
}
