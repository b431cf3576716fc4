package bandit

import (
	"math/rand"
	"reflect"
	"testing"
)

// richSnapshot builds a snapshot exercising every Clone-copied field: a
// successive-elimination learner driven until some arms are eliminated,
// wrapped in a Lipschitz interval. The arm slice comes from a real driven
// policy, not literals, so the test tracks the snapshot schema.
func richSnapshot(t *testing.T) *LipschitzSnapshot {
	t.Helper()
	se, err := NewSuccessiveElimination(6)
	if err != nil {
		t.Fatal(err)
	}
	drive(se, []float64{1, 5, 2, 8, 3, 4}, 600, rand.New(rand.NewSource(9)))
	lip, err := NewLipschitz(se, 200, 1200)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := lip.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestLipschitzSnapshotClone proves Clone is a faithful deep copy: equal
// to the original, restorable to an identical policy, and sharing no
// mutable slices with it — the property composeRestore relies on so two
// shards seeded from one manifest never alias arm statistics.
func TestLipschitzSnapshotClone(t *testing.T) {
	snap := richSnapshot(t)
	clone := snap.Clone()
	if !reflect.DeepEqual(snap, clone) {
		t.Fatalf("clone differs from original:\n%+v\nvs\n%+v", snap, clone)
	}
	if _, err := RestoreLipschitz(clone); err != nil {
		t.Fatalf("restoring clone: %v", err)
	}

	// Mutate the clone's arms and scalars; the original must not move.
	p := clone.Policy
	if len(p.Arms) == 0 || p.T == 0 {
		t.Fatal("test setup: expected a driven policy with arms")
	}
	eliminated := false
	for _, a := range p.Arms {
		eliminated = eliminated || !a.Active
	}
	if !eliminated {
		t.Fatal("test setup: expected an eliminated arm")
	}
	p.Arms[0].Sum += 99
	p.Arms[1].Active = !p.Arms[1].Active
	p.T += 5
	clone.Min = -1
	if reflect.DeepEqual(snap, clone) {
		t.Fatal("mutating the clone should diverge it from the original")
	}
	fresh := richSnapshot(t)
	if !reflect.DeepEqual(snap, fresh) {
		t.Fatal("mutating the clone leaked into the original's shared state")
	}
}

// TestPolicySnapshotCloneNil pins the nil-receiver contract both Clone
// methods rely on for absent inner policies.
func TestPolicySnapshotCloneNil(t *testing.T) {
	var p *PolicySnapshot
	if p.Clone() != nil {
		t.Fatal("nil PolicySnapshot should clone to nil")
	}
	var l *LipschitzSnapshot
	if l.Clone() != nil {
		t.Fatal("nil LipschitzSnapshot should clone to nil")
	}
}
