// Package bandit implements the multi-armed-bandit policies behind the
// paper's DynamicRR algorithm (Section V): a successive-elimination policy
// with UCB/LCB confidence bounds over a finite arm set, plus UCB1,
// epsilon-greedy and a fixed arm used for ablations, and a Lipschitz
// wrapper that maps a continuous threshold interval [min, max] onto kappa
// discretized arms (fixed discretization, Eq. (21) and Theorem 3).
// Successive elimination is the one policy a checkpoint can persist.
//
// All policies share the Policy interface: Select returns the arm to play
// this round; Update feeds back the observed reward. Rewards may live on
// any scale; confidence radii use the running observed range so callers do
// not need to normalize.
package bandit

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrNoArms is returned by constructors given an empty arm set.
var ErrNoArms = errors.New("bandit: need at least one arm")

// Policy is a finite-arm bandit algorithm. Implementations are not safe
// for concurrent use.
type Policy interface {
	// NumArms returns the size of the arm set.
	NumArms() int
	// Select returns the index of the arm to play this round.
	Select() int
	// Update records the reward observed after playing arm.
	Update(arm int, reward float64)
	// Mean returns the empirical mean reward of arm (0 if unplayed).
	Mean(arm int) float64
	// Plays returns how many times arm has been played.
	Plays(arm int) int
}

// armStats tracks per-arm play counts and reward sums.
type armStats struct {
	plays int
	sum   float64
}

func (a *armStats) mean() float64 {
	if a.plays == 0 {
		return 0
	}
	return a.sum / float64(a.plays)
}

// SuccessiveElimination is the paper's arm-selection procedure: all arms
// start active; in each round the active arms are played round-robin, and
// an arm a is deactivated as soon as UCB_t(a) < LCB_t(a') for some active
// arm a'. The confidence radius is r_t(a) = scale * sqrt(2 log(t) / n_a).
type SuccessiveElimination struct {
	arms    []armStats
	active  []bool
	nActive int
	t       int
	next    int // round-robin cursor over active arms
	minObs  float64
	maxObs  float64
	seen    bool
}

var _ Policy = (*SuccessiveElimination)(nil)

// NewSuccessiveElimination creates the policy over k arms.
func NewSuccessiveElimination(k int) (*SuccessiveElimination, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w: k=%d", ErrNoArms, k)
	}
	se := &SuccessiveElimination{
		arms:    make([]armStats, k),
		active:  make([]bool, k),
		nActive: k,
	}
	for i := range se.active {
		se.active[i] = true
	}
	return se, nil
}

// NumArms implements Policy.
func (se *SuccessiveElimination) NumArms() int { return len(se.arms) }

// Plays implements Policy.
func (se *SuccessiveElimination) Plays(arm int) int { return se.arms[arm].plays }

// Mean implements Policy.
func (se *SuccessiveElimination) Mean(arm int) float64 { return se.arms[arm].mean() }

// Active reports whether arm is still in play.
func (se *SuccessiveElimination) Active(arm int) bool { return se.active[arm] }

// NumActive returns the number of arms not yet eliminated.
func (se *SuccessiveElimination) NumActive() int { return se.nActive }

// Select returns the next active arm in round-robin order, guaranteeing
// that active arms are explored evenly ("try all active arms in possibly
// multiple rounds", Algorithm 3 step 5).
func (se *SuccessiveElimination) Select() int {
	for i := 0; i < len(se.arms); i++ {
		arm := (se.next + i) % len(se.arms)
		if se.active[arm] {
			se.next = (arm + 1) % len(se.arms)
			return arm
		}
	}
	return 0 // unreachable: at least one arm stays active
}

// BestArm returns the active arm with the highest empirical mean
// (Algorithm 3 step 9 picks this arm's value as the threshold).
func (se *SuccessiveElimination) BestArm() int {
	best, bestMean := -1, math.Inf(-1)
	for i := range se.arms {
		if !se.active[i] {
			continue
		}
		if m := se.arms[i].mean(); m > bestMean {
			best, bestMean = i, m
		}
	}
	return best
}

// Bounds returns arm's lower and upper confidence bounds, mean ± r_t(a).
// An unplayed arm reports (-Inf, +Inf). Invariant (checked by the oracle):
// lcb ≤ mean ≤ ucb always.
func (se *SuccessiveElimination) Bounds(arm int) (lcb, ucb float64) {
	r := se.radius(arm)
	m := se.arms[arm].mean()
	return m - r, m + r
}

// Update implements Policy and performs the elimination sweep.
func (se *SuccessiveElimination) Update(arm int, reward float64) {
	se.t++
	a := &se.arms[arm]
	a.plays++
	a.sum += reward
	if !se.seen {
		se.minObs, se.maxObs, se.seen = reward, reward, true
	} else {
		se.minObs = math.Min(se.minObs, reward)
		se.maxObs = math.Max(se.maxObs, reward)
	}
	se.eliminate()
}

// radius is the confidence radius r_t(a), scaled to the observed reward
// range so the policy is scale-free.
func (se *SuccessiveElimination) radius(arm int) float64 {
	n := se.arms[arm].plays
	if n == 0 {
		return math.Inf(1)
	}
	scale := se.maxObs - se.minObs
	if scale <= 0 {
		scale = 1
	}
	return scale * math.Sqrt(2*math.Log(float64(se.t)+1)/float64(n))
}

// eliminate deactivates every arm whose UCB falls below some active arm's
// LCB. It never deactivates the final remaining arm.
func (se *SuccessiveElimination) eliminate() {
	if se.nActive <= 1 {
		return
	}
	// Highest LCB among active arms.
	bestLCB := math.Inf(-1)
	for i := range se.arms {
		if !se.active[i] || se.arms[i].plays == 0 {
			continue
		}
		if lcb := se.arms[i].mean() - se.radius(i); lcb > bestLCB {
			bestLCB = lcb
		}
	}
	for i := range se.arms {
		if !se.active[i] || se.nActive <= 1 {
			continue
		}
		if se.arms[i].plays == 0 {
			continue
		}
		ucb := se.arms[i].mean() + se.radius(i)
		if ucb < bestLCB {
			se.active[i] = false
			se.nActive--
		}
	}
}

// UCB1 is the classic optimism-in-face-of-uncertainty policy, provided as
// an ablation baseline for the arm-selection step of DynamicRR.
type UCB1 struct {
	arms   []armStats
	t      int
	minObs float64
	maxObs float64
	seen   bool
}

var _ Policy = (*UCB1)(nil)

// NewUCB1 creates a UCB1 policy over k arms.
func NewUCB1(k int) (*UCB1, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w: k=%d", ErrNoArms, k)
	}
	return &UCB1{arms: make([]armStats, k)}, nil
}

// NumArms implements Policy.
func (u *UCB1) NumArms() int { return len(u.arms) }

// Plays implements Policy.
func (u *UCB1) Plays(arm int) int { return u.arms[arm].plays }

// Mean implements Policy.
func (u *UCB1) Mean(arm int) float64 { return u.arms[arm].mean() }

// Select implements Policy.
func (u *UCB1) Select() int {
	// Play each arm once first.
	for i := range u.arms {
		if u.arms[i].plays == 0 {
			return i
		}
	}
	scale := u.maxObs - u.minObs
	if scale <= 0 {
		scale = 1
	}
	best, bestV := 0, math.Inf(-1)
	for i := range u.arms {
		v := u.arms[i].mean() + scale*math.Sqrt(2*math.Log(float64(u.t)+1)/float64(u.arms[i].plays))
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// Update implements Policy.
func (u *UCB1) Update(arm int, reward float64) {
	u.t++
	u.arms[arm].plays++
	u.arms[arm].sum += reward
	if !u.seen {
		u.minObs, u.maxObs, u.seen = reward, reward, true
	} else {
		u.minObs = math.Min(u.minObs, reward)
		u.maxObs = math.Max(u.maxObs, reward)
	}
}

// EpsilonGreedy explores uniformly with probability eps and exploits the
// empirical best arm otherwise. Ablation baseline.
type EpsilonGreedy struct {
	arms []armStats
	eps  float64
	rng  *rand.Rand
}

var _ Policy = (*EpsilonGreedy)(nil)

// NewEpsilonGreedy creates the policy; eps must be in [0, 1].
func NewEpsilonGreedy(k int, eps float64, rng *rand.Rand) (*EpsilonGreedy, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w: k=%d", ErrNoArms, k)
	}
	if eps < 0 || eps > 1 || math.IsNaN(eps) {
		return nil, fmt.Errorf("bandit: eps %v out of [0, 1]", eps)
	}
	return &EpsilonGreedy{arms: make([]armStats, k), eps: eps, rng: rng}, nil
}

// NumArms implements Policy.
func (e *EpsilonGreedy) NumArms() int { return len(e.arms) }

// Plays implements Policy.
func (e *EpsilonGreedy) Plays(arm int) int { return e.arms[arm].plays }

// Mean implements Policy.
func (e *EpsilonGreedy) Mean(arm int) float64 { return e.arms[arm].mean() }

// Select implements Policy.
func (e *EpsilonGreedy) Select() int {
	for i := range e.arms {
		if e.arms[i].plays == 0 {
			return i
		}
	}
	if e.rng.Float64() < e.eps {
		return e.rng.Intn(len(e.arms))
	}
	best, bestV := 0, math.Inf(-1)
	for i := range e.arms {
		if m := e.arms[i].mean(); m > bestV {
			best, bestV = i, m
		}
	}
	return best
}

// Update implements Policy.
func (e *EpsilonGreedy) Update(arm int, reward float64) {
	e.arms[arm].plays++
	e.arms[arm].sum += reward
}

// Fixed always plays one arm; it is the "no learning" ablation.
type Fixed struct {
	k   int
	arm int
}

var _ Policy = (*Fixed)(nil)

// NewFixed creates a policy over k arms that always plays arm.
func NewFixed(k, arm int) (*Fixed, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w: k=%d", ErrNoArms, k)
	}
	if arm < 0 || arm >= k {
		return nil, fmt.Errorf("bandit: arm %d out of [0, %d)", arm, k)
	}
	return &Fixed{k: k, arm: arm}, nil
}

// NumArms implements Policy.
func (f *Fixed) NumArms() int { return f.k }

// Select implements Policy.
func (f *Fixed) Select() int { return f.arm }

// Update implements Policy.
func (f *Fixed) Update(int, float64) {}

// Mean implements Policy.
func (f *Fixed) Mean(int) float64 { return 0 }

// Plays implements Policy.
func (f *Fixed) Plays(int) int { return 0 }
