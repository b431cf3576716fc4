package bandit

import (
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// drive plays a policy for n rounds against a fixed arm->reward profile
// with multiplicative noise from rng, returning the arms played.
func drive(p Policy, means []float64, n int, rng *rand.Rand) []int {
	played := make([]int, 0, n)
	for i := 0; i < n; i++ {
		arm := p.Select()
		played = append(played, arm)
		p.Update(arm, means[arm]*(0.9+0.2*rng.Float64()))
	}
	return played
}

func TestSuccessiveEliminationSnapshotRoundTrip(t *testing.T) {
	means := []float64{1, 3, 9, 4, 2, 8, 7, 1}
	se, err := NewSuccessiveElimination(len(means))
	if err != nil {
		t.Fatal(err)
	}
	drive(se, means, 200, rand.New(rand.NewSource(1)))

	snap := se.Snapshot()
	// Through JSON, the way the daemon checkpoint persists it.
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back PolicySnapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	re, err := RestorePolicy(&back)
	if err != nil {
		t.Fatal(err)
	}

	// Identical statistics...
	if re.NumActive() != se.NumActive() {
		t.Fatalf("active: got %d want %d", re.NumActive(), se.NumActive())
	}
	for a := 0; a < len(means); a++ {
		if re.Plays(a) != se.Plays(a) || re.Mean(a) != se.Mean(a) || re.Active(a) != se.Active(a) {
			t.Fatalf("arm %d: got (%d, %v, %v) want (%d, %v, %v)",
				a, re.Plays(a), re.Mean(a), re.Active(a), se.Plays(a), se.Mean(a), se.Active(a))
		}
	}
	if re.BestArm() != se.BestArm() {
		t.Fatalf("best arm: got %d want %d", re.BestArm(), se.BestArm())
	}

	// ...and identical future behavior: the continuation of the original
	// and the restored copy play the same arms under the same rewards.
	rngA, rngB := rand.New(rand.NewSource(2)), rand.New(rand.NewSource(2))
	seqA := drive(se, means, 100, rngA)
	seqB := drive(re, means, 100, rngB)
	if !reflect.DeepEqual(seqA, seqB) {
		t.Fatalf("diverged after restore:\noriginal %v\nrestored %v", seqA, seqB)
	}
}

func TestLipschitzSnapshotRoundTrip(t *testing.T) {
	se, err := NewSuccessiveElimination(8)
	if err != nil {
		t.Fatal(err)
	}
	lip, err := NewLipschitz(se, 200, 1200)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		arm, v := lip.SelectValue()
		lip.Update(arm, 1000-v/2)
	}
	snap, err := lip.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	back, err := RestoreLipschitz(snap)
	if err != nil {
		t.Fatal(err)
	}
	if back.Kappa() != lip.Kappa() || back.Epsilon() != lip.Epsilon() {
		t.Fatalf("grid mismatch: (%d, %v) vs (%d, %v)", back.Kappa(), back.Epsilon(), lip.Kappa(), lip.Epsilon())
	}
	for i := 0; i < 20; i++ {
		armA, vA := lip.SelectValue()
		armB, vB := back.SelectValue()
		if armA != armB || vA != vB {
			t.Fatalf("round %d: (%d, %v) vs (%d, %v)", i, armA, vA, armB, vB)
		}
		lip.Update(armA, vA)
		back.Update(armB, vB)
	}
}

// TestSnapshotUnsupportedPolicy: only successive elimination persists;
// a Lipschitz learner over any ablation policy refuses to snapshot, and
// restore refuses a kind it does not know.
func TestSnapshotUnsupportedPolicy(t *testing.T) {
	eg, err := NewEpsilonGreedy(4, 0.1, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUCB1(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []Policy{eg, u} {
		lip, err := NewLipschitz(pol, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lip.Snapshot(); !errors.Is(err, ErrUnsupportedSnapshot) {
			t.Fatalf("%T inner policy: Snapshot = %v, want ErrUnsupportedSnapshot", pol, err)
		}
	}
	if _, err := RestorePolicy(&PolicySnapshot{Kind: "mystery", Arms: []ArmSnapshot{{}}}); err == nil {
		t.Fatal("expected error for unknown snapshot kind")
	}
	if _, err := RestorePolicy(&PolicySnapshot{Kind: KindSuccessiveElimination, Arms: []ArmSnapshot{{Plays: 1}}}); err == nil {
		t.Fatal("expected error for snapshot with no active arms")
	}
}
