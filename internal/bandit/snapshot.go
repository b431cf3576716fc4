package bandit

import (
	"errors"
	"fmt"
)

// Snapshot kinds. Only policies whose state is fully captured by per-arm
// statistics plus a few scalars are snapshottable; EpsilonGreedy is not
// (its exploration stream lives in an external *rand.Rand), and neither
// is an Exp3 built on a caller-supplied rng — use NewExp3Seeded, whose
// owned stream is recorded as (seed, draws) and replayed on restore.
const (
	KindSuccessiveElimination = "successive-elimination"
	KindUCB1                  = "ucb1"
	KindFixed                 = "fixed"
	KindSlidingWindowUCB      = "sw-ucb"
	KindDiscountedUCB         = "d-ucb"
	KindExp3S                 = "exp3s"
	KindRestart               = "restart"
)

// ErrUnsupportedSnapshot reports a policy that cannot round-trip through
// a snapshot.
var ErrUnsupportedSnapshot = errors.New("bandit: policy does not support snapshots")

// ArmSnapshot is one arm's persisted statistics. WPlays/WSum carry
// DiscountedUCB's gamma-discounted (fractional) count and sum alongside
// the lifetime integers.
type ArmSnapshot struct {
	Plays  int     `json:"plays"`
	Sum    float64 `json:"sum"`
	Active bool    `json:"active,omitempty"`
	WPlays float64 `json:"wPlays,omitempty"`
	WSum   float64 `json:"wSum,omitempty"`
}

// WindowEntry is one remembered play in SlidingWindowUCB's window,
// persisted oldest-first.
type WindowEntry struct {
	Arm    int     `json:"arm"`
	Reward float64 `json:"reward"`
}

// DetectorSnapshot persists a Page–Hinkley detector: configuration plus
// the running statistics of the current segment.
type DetectorSnapshot struct {
	Delta  float64 `json:"delta"`
	Lambda float64 `json:"lambda"`
	Warmup int     `json:"warmup"`
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	MUp    float64 `json:"mUp"`
	MinUp  float64 `json:"minUp"`
	MDn    float64 `json:"mDn"`
	MinDn  float64 `json:"minDn"`
}

// PolicySnapshot is the serializable state of a finite-arm policy: arm
// means and pull counts, the eliminated set, the round counter, the
// round-robin cursor, and the observed reward range that scales the
// confidence radii. Restoring it yields a policy whose future decisions
// are identical to the original's.
type PolicySnapshot struct {
	Kind   string        `json:"kind"`
	T      int           `json:"t"`
	Next   int           `json:"next,omitempty"`
	Arm    int           `json:"arm,omitempty"` // Fixed's pinned arm
	MinObs float64       `json:"minObs,omitempty"`
	MaxObs float64       `json:"maxObs,omitempty"`
	Seen   bool          `json:"seen,omitempty"`
	Arms   []ArmSnapshot `json:"arms"`

	// SlidingWindowUCB: ring contents oldest-first plus capacity.
	Window    []WindowEntry `json:"window,omitempty"`
	WindowCap int           `json:"windowCap,omitempty"`
	// DiscountedUCB: discount factor and discounted total count. Gamma
	// doubles as Exp3's exploration fraction.
	Gamma float64 `json:"gamma,omitempty"`
	NTot  float64 `json:"nTot,omitempty"`
	// Exp3.S: mixing rate, weights, the owned rng's seed and consumed
	// draw count, and the pending importance weight from an un-updated
	// Select.
	Alpha    float64   `json:"alpha,omitempty"`
	Weights  []float64 `json:"weights,omitempty"`
	Seed     int64     `json:"seed,omitempty"`
	Draws    int       `json:"draws,omitempty"`
	LastArm  int       `json:"lastArm,omitempty"`
	LastProb float64   `json:"lastProb,omitempty"`
	// Restart: the supervised policy, the per-arm detectors, and the
	// restart count.
	Inner     *PolicySnapshot    `json:"inner,omitempty"`
	Detectors []DetectorSnapshot `json:"detectors,omitempty"`
	Restarts  int                `json:"restarts,omitempty"`
}

// LipschitzSnapshot persists a Lipschitz wrapper: the continuous interval
// plus the inner policy's state.
type LipschitzSnapshot struct {
	Min    float64         `json:"min"`
	Max    float64         `json:"max"`
	Policy *PolicySnapshot `json:"policy"`
}

// Clone deep-copies the snapshot: the returned value shares no slices
// (Arms, Window, Weights, Detectors) or nested snapshots with the
// receiver, so two restored policies can never alias arm statistics.
// Much cheaper than the JSON round-trip it replaces in the cluster's
// restore composition.
func (s *PolicySnapshot) Clone() *PolicySnapshot {
	if s == nil {
		return nil
	}
	out := *s
	if s.Arms != nil {
		out.Arms = make([]ArmSnapshot, len(s.Arms))
		copy(out.Arms, s.Arms)
	}
	if s.Window != nil {
		out.Window = make([]WindowEntry, len(s.Window))
		copy(out.Window, s.Window)
	}
	if s.Weights != nil {
		out.Weights = make([]float64, len(s.Weights))
		copy(out.Weights, s.Weights)
	}
	if s.Detectors != nil {
		out.Detectors = make([]DetectorSnapshot, len(s.Detectors))
		copy(out.Detectors, s.Detectors)
	}
	out.Inner = s.Inner.Clone()
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

// Snapshot captures the policy's state.
func (u *UCB1) Snapshot() *PolicySnapshot {
	s := &PolicySnapshot{
		Kind:   KindUCB1,
		T:      u.t,
		MinObs: u.minObs,
		MaxObs: u.maxObs,
		Seen:   u.seen,
		Arms:   make([]ArmSnapshot, len(u.arms)),
	}
	for i := range u.arms {
		s.Arms[i] = ArmSnapshot{Plays: u.arms[i].plays, Sum: u.arms[i].sum}
	}
	return s
}

// Snapshot captures the policy's state.
func (f *Fixed) Snapshot() *PolicySnapshot {
	return &PolicySnapshot{
		Kind: KindFixed,
		Arm:  f.arm,
		Arms: make([]ArmSnapshot, f.k),
	}
}

// Snapshot captures the policy's state, including the exact window
// contents so the restored ring evicts in the same order.
func (s *SlidingWindowUCB) Snapshot() *PolicySnapshot {
	snap := &PolicySnapshot{
		Kind:      KindSlidingWindowUCB,
		T:         s.t,
		MinObs:    s.minObs,
		MaxObs:    s.maxObs,
		Seen:      s.seen,
		Arms:      make([]ArmSnapshot, len(s.arms)),
		WindowCap: s.window,
		Window:    make([]WindowEntry, 0, s.size),
	}
	for i := range s.arms {
		snap.Arms[i] = ArmSnapshot{Plays: s.arms[i].plays, Sum: s.arms[i].sum}
	}
	for i := 0; i < s.size; i++ {
		e := s.win[(s.head+i)%len(s.win)]
		snap.Window = append(snap.Window, WindowEntry{Arm: e.arm, Reward: e.reward})
	}
	return snap
}

// Snapshot captures the policy's state.
func (u *DiscountedUCB) Snapshot() *PolicySnapshot {
	snap := &PolicySnapshot{
		Kind:   KindDiscountedUCB,
		T:      u.t,
		MinObs: u.minObs,
		MaxObs: u.maxObs,
		Seen:   u.seen,
		Gamma:  u.gamma,
		NTot:   u.nTot,
		Arms:   make([]ArmSnapshot, len(u.arms)),
	}
	for i := range u.arms {
		snap.Arms[i] = ArmSnapshot{
			Plays:  u.arms[i].plays,
			Sum:    u.arms[i].sum,
			WPlays: u.d[i].dPlays,
			WSum:   u.d[i].dSum,
		}
	}
	return snap
}

// Snapshot captures the policy's state. It returns nil for an Exp3 built
// on a caller-supplied rng (NewExp3/NewExp3S): only the seeded variant
// can replay its random stream on restore.
func (e *Exp3) Snapshot() *PolicySnapshot {
	if !e.seeded {
		return nil
	}
	snap := &PolicySnapshot{
		Kind:     KindExp3S,
		MinObs:   e.minObs,
		MaxObs:   e.maxObs,
		Seen:     e.seen,
		Gamma:    e.gamma,
		Alpha:    e.alpha,
		Seed:     e.seed,
		Draws:    e.draws,
		LastArm:  e.lastArm,
		LastProb: e.lastProb,
		Weights:  append([]float64(nil), e.weights...),
		Arms:     make([]ArmSnapshot, len(e.weights)),
	}
	for i := range e.weights {
		snap.Arms[i] = ArmSnapshot{Plays: e.plays[i], Sum: e.sums[i]}
	}
	return snap
}

// Snapshot captures the wrapper, its detector, and the inner policy. It
// returns nil when the inner policy cannot be persisted.
func (r *Restart) Snapshot() *PolicySnapshot {
	sn, ok := r.inner.(Snapshotter)
	if !ok {
		return nil
	}
	inner := sn.Snapshot()
	if inner == nil {
		return nil
	}
	dets := make([]DetectorSnapshot, len(r.phs))
	for i, ph := range r.phs {
		dets[i] = DetectorSnapshot{
			Delta:  ph.Delta,
			Lambda: ph.Lambda,
			Warmup: ph.Warmup,
			N:      ph.n,
			Mean:   ph.mean,
			MUp:    ph.mUp,
			MinUp:  ph.minUp,
			MDn:    ph.mDn,
			MinDn:  ph.minDn,
		}
	}
	return &PolicySnapshot{
		Kind:      KindRestart,
		MinObs:    r.minObs,
		MaxObs:    r.maxObs,
		Seen:      r.seen,
		Restarts:  r.restarts,
		Inner:     inner,
		Detectors: dets,
	}
}

// Snapshotter is implemented by policies that can persist their state. A
// nil return means this particular instance cannot be persisted (e.g. an
// Exp3 on a caller-supplied rng).
type Snapshotter interface {
	Snapshot() *PolicySnapshot
}

// RestorePolicy rebuilds a policy from its snapshot.
func RestorePolicy(s *PolicySnapshot) (Policy, error) {
	if s == nil {
		return nil, fmt.Errorf("%w: nil snapshot", ErrUnsupportedSnapshot)
	}
	if len(s.Arms) == 0 && s.Kind != KindRestart {
		return nil, ErrNoArms
	}
	switch s.Kind {
	case KindSuccessiveElimination:
		se, err := NewSuccessiveElimination(len(s.Arms))
		if err != nil {
			return nil, err
		}
		if s.Next < 0 || s.Next >= len(s.Arms) {
			return nil, fmt.Errorf("%w: round-robin cursor %d out of range", ErrUnsupportedSnapshot, s.Next)
		}
		se.t = s.T
		se.next = s.Next
		se.minObs, se.maxObs, se.seen = s.MinObs, s.MaxObs, s.Seen
		se.nActive = 0
		for i, a := range s.Arms {
			se.arms[i] = armStats{plays: a.Plays, sum: a.Sum}
			se.active[i] = a.Active
			if a.Active {
				se.nActive++
			}
		}
		if se.nActive == 0 {
			return nil, fmt.Errorf("%w: no active arms", ErrUnsupportedSnapshot)
		}
		return se, nil
	case KindUCB1:
		u, err := NewUCB1(len(s.Arms))
		if err != nil {
			return nil, err
		}
		u.t = s.T
		u.minObs, u.maxObs, u.seen = s.MinObs, s.MaxObs, s.Seen
		for i, a := range s.Arms {
			u.arms[i] = armStats{plays: a.Plays, sum: a.Sum}
		}
		return u, nil
	case KindFixed:
		return NewFixed(len(s.Arms), s.Arm)
	case KindSlidingWindowUCB:
		sw, err := NewSlidingWindowUCB(len(s.Arms), s.WindowCap)
		if err != nil {
			return nil, err
		}
		if len(s.Window) > sw.window {
			return nil, fmt.Errorf("%w: window has %d entries, cap %d", ErrUnsupportedSnapshot, len(s.Window), sw.window)
		}
		sw.t = s.T
		sw.minObs, sw.maxObs, sw.seen = s.MinObs, s.MaxObs, s.Seen
		for i, a := range s.Arms {
			sw.arms[i] = armStats{plays: a.Plays, sum: a.Sum}
		}
		for _, e := range s.Window {
			if e.Arm < 0 || e.Arm >= len(s.Arms) {
				return nil, fmt.Errorf("%w: window arm %d out of range", ErrUnsupportedSnapshot, e.Arm)
			}
			sw.win = append(sw.win, winEntry{arm: e.Arm, reward: e.Reward})
			sw.wPlays[e.Arm]++
			sw.wSums[e.Arm] += e.Reward
			sw.size++
		}
		// The restored ring starts compacted: head 0, oldest entry first.
		// Eviction order only depends on entry order, so the continuation
		// is decision-identical.
		return sw, nil
	case KindDiscountedUCB:
		du, err := NewDiscountedUCB(len(s.Arms), s.Gamma)
		if err != nil {
			return nil, err
		}
		du.t = s.T
		du.nTot = s.NTot
		du.minObs, du.maxObs, du.seen = s.MinObs, s.MaxObs, s.Seen
		for i, a := range s.Arms {
			du.arms[i] = armStats{plays: a.Plays, sum: a.Sum}
			du.d[i] = dArm{dPlays: a.WPlays, dSum: a.WSum}
		}
		return du, nil
	case KindExp3S:
		if len(s.Weights) != len(s.Arms) {
			return nil, fmt.Errorf("%w: %d weights for %d arms", ErrUnsupportedSnapshot, len(s.Weights), len(s.Arms))
		}
		e, err := NewExp3Seeded(len(s.Arms), s.Gamma, s.Alpha, s.Seed)
		if err != nil {
			return nil, err
		}
		// Replay the owned stream to the recorded position: Select consumes
		// exactly one Float64 per call, so discarding Draws of them lands
		// the rng where the original left off.
		for i := 0; i < s.Draws; i++ {
			e.rng.Float64()
		}
		e.draws = s.Draws
		copy(e.weights, s.Weights)
		e.minObs, e.maxObs, e.seen = s.MinObs, s.MaxObs, s.Seen
		e.lastArm, e.lastProb = s.LastArm, s.LastProb
		for i, a := range s.Arms {
			e.plays[i] = a.Plays
			e.sums[i] = a.Sum
		}
		return e, nil
	case KindRestart:
		if s.Inner == nil || len(s.Detectors) == 0 {
			return nil, fmt.Errorf("%w: restart snapshot missing inner or detectors", ErrUnsupportedSnapshot)
		}
		pol, err := RestorePolicy(s.Inner)
		if err != nil {
			return nil, err
		}
		inner, ok := pol.(Resettable)
		if !ok {
			return nil, fmt.Errorf("%w: restart inner %T is not resettable", ErrUnsupportedSnapshot, pol)
		}
		if len(s.Detectors) != inner.NumArms() {
			return nil, fmt.Errorf("%w: %d detectors for %d arms", ErrUnsupportedSnapshot, len(s.Detectors), inner.NumArms())
		}
		r, err := NewRestart(inner, nil)
		if err != nil {
			return nil, err
		}
		for i, d := range s.Detectors {
			ph, err := NewPageHinkley(d.Delta, d.Lambda, d.Warmup)
			if err != nil {
				return nil, err
			}
			ph.n, ph.mean = d.N, d.Mean
			ph.mUp, ph.minUp, ph.mDn, ph.minDn = d.MUp, d.MinUp, d.MDn, d.MinDn
			r.phs[i] = ph
		}
		r.minObs, r.maxObs, r.seen = s.MinObs, s.MaxObs, s.Seen
		r.restarts = s.Restarts
		return r, nil
	default:
		return nil, fmt.Errorf("%w: kind %q", ErrUnsupportedSnapshot, s.Kind)
	}
}

// Snapshot captures the wrapper and its inner policy. It fails with
// ErrUnsupportedSnapshot when the inner policy cannot be persisted.
func (l *Lipschitz) Snapshot() (*LipschitzSnapshot, error) {
	sn, ok := l.policy.(Snapshotter)
	if !ok {
		return nil, fmt.Errorf("%w: %T", ErrUnsupportedSnapshot, l.policy)
	}
	ps := sn.Snapshot()
	if ps == nil {
		return nil, fmt.Errorf("%w: %T instance", ErrUnsupportedSnapshot, l.policy)
	}
	return &LipschitzSnapshot{Min: l.min, Max: l.max, Policy: ps}, nil
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
