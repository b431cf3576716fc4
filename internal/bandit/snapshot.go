package bandit

import (
	"errors"
	"fmt"
)

// KindSuccessiveElimination is the one snapshot kind: the paper's
// successive elimination is the only policy a checkpoint persists.
const KindSuccessiveElimination = "successive-elimination"

// ErrUnsupportedSnapshot reports a policy that cannot round-trip through
// a snapshot, or a snapshot no policy could have written.
var ErrUnsupportedSnapshot = errors.New("bandit: policy does not support snapshots")

// ArmSnapshot is one arm's persisted statistics.
type ArmSnapshot struct {
	Plays  int     `json:"plays"`
	Sum    float64 `json:"sum"`
	Active bool    `json:"active,omitempty"`
}

// PolicySnapshot is the serializable state of a successive-elimination
// policy: arm means and pull counts, the eliminated set, the round
// counter, the round-robin cursor, and the observed reward range that
// scales the confidence radii. Restoring it yields a policy whose future
// decisions are identical to the original's.
type PolicySnapshot struct {
	Kind   string        `json:"kind"`
	T      int           `json:"t"`
	Next   int           `json:"next,omitempty"`
	MinObs float64       `json:"minObs,omitempty"`
	MaxObs float64       `json:"maxObs,omitempty"`
	Seen   bool          `json:"seen,omitempty"`
	Arms   []ArmSnapshot `json:"arms"`
}

// LipschitzSnapshot persists a Lipschitz wrapper: the continuous interval
// plus the inner policy's state.
type LipschitzSnapshot struct {
	Min    float64         `json:"min"`
	Max    float64         `json:"max"`
	Policy *PolicySnapshot `json:"policy"`
}

// Clone deep-copies the snapshot: the returned value shares no Arms slice
// with the receiver, so two restored policies can never alias arm
// statistics. Much cheaper than the JSON round-trip it replaces in the
// cluster's restore composition.
func (s *PolicySnapshot) Clone() *PolicySnapshot {
	if s == nil {
		return nil
	}
	out := *s
	if s.Arms != nil {
		out.Arms = make([]ArmSnapshot, len(s.Arms))
		copy(out.Arms, s.Arms)
	}
	return &out
}

// Clone deep-copies the wrapper and its inner policy snapshot.
func (s *LipschitzSnapshot) Clone() *LipschitzSnapshot {
	if s == nil {
		return nil
	}
	out := *s
	out.Policy = s.Policy.Clone()
	return &out
}

// Snapshot captures the policy's state.
func (se *SuccessiveElimination) Snapshot() *PolicySnapshot {
	s := &PolicySnapshot{
		Kind:   KindSuccessiveElimination,
		T:      se.t,
		Next:   se.next,
		MinObs: se.minObs,
		MaxObs: se.maxObs,
		Seen:   se.seen,
		Arms:   make([]ArmSnapshot, len(se.arms)),
	}
	for i := range se.arms {
		s.Arms[i] = ArmSnapshot{Plays: se.arms[i].plays, Sum: se.arms[i].sum, Active: se.active[i]}
	}
	return s
}

// RestorePolicy rebuilds a successive-elimination policy from its
// snapshot. It refuses any other kind, and any statistics Update could
// not have produced: they would break the confidence bounds (a negative
// play count makes the radius NaN) or strand an arm elimination never
// looks at.
func RestorePolicy(s *PolicySnapshot) (*SuccessiveElimination, error) {
	if s == nil {
		return nil, fmt.Errorf("%w: nil snapshot", ErrUnsupportedSnapshot)
	}
	if s.Kind != KindSuccessiveElimination {
		return nil, fmt.Errorf("%w: kind %q", ErrUnsupportedSnapshot, s.Kind)
	}
	se, err := NewSuccessiveElimination(len(s.Arms))
	if err != nil {
		return nil, err
	}
	if s.Next < 0 || s.Next >= len(s.Arms) {
		return nil, fmt.Errorf("%w: round-robin cursor %d out of range", ErrUnsupportedSnapshot, s.Next)
	}
	if s.Seen != (s.T > 0) {
		return nil, fmt.Errorf("%w: seen=%v after %d rounds", ErrUnsupportedSnapshot, s.Seen, s.T)
	}
	if s.MinObs > s.MaxObs {
		return nil, fmt.Errorf("%w: reward range [%v, %v] is reversed", ErrUnsupportedSnapshot, s.MinObs, s.MaxObs)
	}
	plays := 0
	se.nActive = 0
	for i, a := range s.Arms {
		switch {
		case a.Plays < 0:
			return nil, fmt.Errorf("%w: arm %d has %d plays", ErrUnsupportedSnapshot, i, a.Plays)
		case a.Plays == 0 && a.Sum != 0:
			return nil, fmt.Errorf("%w: unplayed arm %d has reward sum %v", ErrUnsupportedSnapshot, i, a.Sum)
		case a.Plays == 0 && !a.Active:
			return nil, fmt.Errorf("%w: unplayed arm %d is eliminated", ErrUnsupportedSnapshot, i)
		}
		plays += a.Plays
		se.arms[i] = armStats{plays: a.Plays, sum: a.Sum}
		se.active[i] = a.Active
		if a.Active {
			se.nActive++
		}
	}
	if plays != s.T {
		return nil, fmt.Errorf("%w: %d rounds but %d plays", ErrUnsupportedSnapshot, s.T, plays)
	}
	if se.nActive == 0 {
		return nil, fmt.Errorf("%w: no active arms", ErrUnsupportedSnapshot)
	}
	se.t = s.T
	se.next = s.Next
	se.minObs, se.maxObs, se.seen = s.MinObs, s.MaxObs, s.Seen
	return se, nil
}

// Snapshot captures the wrapper and its inner policy. It fails with
// ErrUnsupportedSnapshot unless the inner policy is successive
// elimination.
func (l *Lipschitz) Snapshot() (*LipschitzSnapshot, error) {
	se, ok := l.policy.(*SuccessiveElimination)
	if !ok {
		return nil, fmt.Errorf("%w: %T", ErrUnsupportedSnapshot, l.policy)
	}
	return &LipschitzSnapshot{Min: l.min, Max: l.max, Policy: se.Snapshot()}, nil
}

// RestoreLipschitz rebuilds a Lipschitz learner from its snapshot.
func RestoreLipschitz(s *LipschitzSnapshot) (*Lipschitz, error) {
	if s == nil {
		return nil, fmt.Errorf("%w: nil snapshot", ErrUnsupportedSnapshot)
	}
	pol, err := RestorePolicy(s.Policy)
	if err != nil {
		return nil, err
	}
	return NewLipschitz(pol, s.Min, s.Max)
}
