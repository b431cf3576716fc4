package bandit

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

// propReward is a deterministic drifting reward: distinct per arm, with a
// mean shift mid-stream so the elimination state is non-trivial when the
// snapshot is taken.
func propReward(arm, step, k int) float64 {
	base := float64(arm + 1)
	if step >= 60 {
		base = float64(k - arm)
	}
	return base + 0.01*math.Sin(float64(step))
}

// TestSnapshotRoundTripProperty: for the one snapshottable policy,
// successive elimination, over several cut points, save -> JSON -> load
// -> continue must match the uninterrupted run decision-for-decision.
func TestSnapshotRoundTripProperty(t *testing.T) {
	const k = 5
	for _, cut := range []int{0, 1, 17, 80, 140} {
		t.Run(fmt.Sprintf("se/cut=%d", cut), func(t *testing.T) {
			p, err := NewSuccessiveElimination(k)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < cut; i++ {
				arm := p.Select()
				p.Update(arm, propReward(arm, i, k))
			}
			raw, err := json.Marshal(p.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			var back PolicySnapshot
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatal(err)
			}
			q, err := RestorePolicy(&back)
			if err != nil {
				t.Fatal(err)
			}
			for i := cut; i < cut+120; i++ {
				a, b := p.Select(), q.Select()
				if a != b {
					t.Fatalf("step %d: original played %d, restored played %d", i, a, b)
				}
				r := propReward(a, i, k)
				p.Update(a, r)
				q.Update(b, r)
				if p.Plays(a) != q.Plays(a) || p.Mean(a) != q.Mean(a) {
					t.Fatalf("step %d arm %d: stats diverged (%d, %v) vs (%d, %v)",
						i, a, p.Plays(a), p.Mean(a), q.Plays(a), q.Mean(a))
				}
			}
		})
	}
}

// TestSnapshotRestoreRejectsCorrupt: table of malformed snapshots the
// restore path must reject rather than mis-restore. Each case corrupts a
// snapshot that restores into a kind no policy writes any more, or into
// statistics successive elimination cannot produce: Update is its only
// mutator and bumps the round counter and one arm's plays together, and
// elimination never drops an unplayed arm.
func TestSnapshotRestoreRejectsCorrupt(t *testing.T) {
	valid := func() *PolicySnapshot {
		return &PolicySnapshot{
			Kind: KindSuccessiveElimination, T: 3, Next: 1, MinObs: 2, MaxObs: 3, Seen: true,
			Arms: []ArmSnapshot{{Plays: 2, Sum: 4, Active: true}, {Plays: 1, Sum: 3, Active: true}},
		}
	}
	if _, err := RestorePolicy(valid()); err != nil {
		t.Fatalf("the uncorrupted snapshot must restore: %v", err)
	}
	cases := map[string]func(s *PolicySnapshot){
		"retired kind":            func(s *PolicySnapshot) { s.Kind = "sw-ucb" },
		"no arms":                 func(s *PolicySnapshot) { s.Arms = nil },
		"cursor out of range":     func(s *PolicySnapshot) { s.Next = 2 },
		"negative cursor":         func(s *PolicySnapshot) { s.Next = -1 },
		"negative plays":          func(s *PolicySnapshot) { s.Arms[0].Plays, s.Arms[1].Plays = -1, 4 },
		"negative rounds":         func(s *PolicySnapshot) { s.T = -7 },
		"rounds exceed plays":     func(s *PolicySnapshot) { s.T = 4 },
		"rounds without a reward": func(s *PolicySnapshot) { s.Seen = false },
		"reward without a round": func(s *PolicySnapshot) {
			s.T, s.Arms = 0, []ArmSnapshot{{Active: true}, {Active: true}}
		},
		"reversed reward range":   func(s *PolicySnapshot) { s.MinObs, s.MaxObs = 3, 2 },
		"unplayed arm with a sum": func(s *PolicySnapshot) { s.Arms = append(s.Arms, ArmSnapshot{Sum: 1, Active: true}) },
		"unplayed arm eliminated": func(s *PolicySnapshot) { s.Arms = append(s.Arms, ArmSnapshot{}) },
		"no active arms":          func(s *PolicySnapshot) { s.Arms[0].Active, s.Arms[1].Active = false, false },
	}
	for name, corrupt := range cases {
		s := valid()
		corrupt(s)
		if _, err := RestorePolicy(s); err == nil {
			t.Errorf("%s: restore accepted a corrupt snapshot", name)
		}
	}
}
