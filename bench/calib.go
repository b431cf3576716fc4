package main

import "time"

// The sandbox this benchmark is accepted on is a few vCPUs of a shared
// host whose speed moves by 10-40% over a minute or two: every wall-clock
// figure of every workload moves with it, run after run, whatever the code
// does (README "Why the times are speed-corrected"). The calibrator
// measures that movement while the workload runs. Between slot cycles, at
// most once per calibEvery, the client goroutine times one burst of a
// fixed piece of arithmetic shaped like the simplex's inner loop; a
// phase's mean burst over calibNominalNS is its speed factor f. The
// serving path is about half bound by the host's speed (the rest is
// wake-ups, loopback I/O and memory), so a time measured at factor f is
// reported divided by 1 - speedShare + speedShare*f.
const (
	calibEvery = 20 * time.Millisecond
	calibRows  = 48
	calibCols  = 128
	calibIters = 40
	// calibNominalNS is one burst's usual length on the reference sandbox.
	// It is a unit conversion, not a tuning knob: changing it rescales the
	// reported times of parent and change alike.
	calibNominalNS = 220e3
	// speedShare is the measured exponent of the workloads' medians
	// against the burst time over 40 runs in two states of the host:
	// 0.36-0.78, median 0.5.
	speedShare = 0.5
)

// calibrator times the bursts. It allocates nothing, so the workload's
// allocation figures are untouched by it.
type calibrator struct {
	tab  [calibRows][calibCols]float64
	last time.Time
	// n and sumNS cover the bursts since the last correction call; spent
	// is every burst's time since the calibrator was made.
	n     int
	sumNS float64
	spent time.Duration
	sink  float64
}

// burst is calibIters pivot-like row eliminations over a freshly filled
// 48 KB table: dense multiply-adds over rows, as lp's pivots are, and the
// same arithmetic every time.
func (c *calibrator) burst() {
	for i := range c.tab {
		for j := range c.tab[i] {
			c.tab[i][j] = float64((i*31+j*17)%97) / 97
		}
	}
	for it := 0; it < calibIters; it++ {
		p := it % calibRows
		pivot := &c.tab[p]
		for r := range c.tab {
			if r == p {
				continue
			}
			row := &c.tab[r]
			f := row[it%calibCols] * 1e-3
			for j := range row {
				row[j] = row[j]*0.999 + f*pivot[j]
			}
		}
	}
	c.sink += c.tab[1][1]
}

// tick times one burst if the last one is calibEvery old. The caller
// invokes it between slot cycles, never inside a timed interval, and takes
// c.spent out of any wall time that spans it.
func (c *calibrator) tick() {
	start := time.Now()
	if start.Sub(c.last) < calibEvery {
		return
	}
	c.burst()
	c.last = time.Now()
	d := c.last.Sub(start)
	c.n++
	c.sumNS += float64(d)
	c.spent += d
}

// correction returns the divisor for times measured since the last call,
// and the speed factor it came from; both are 1 when no burst ran (a run
// of a few slots).
func (c *calibrator) correction() (div, factor float64) {
	factor = 1
	if c.n > 0 {
		factor = c.sumNS / float64(c.n) / calibNominalNS
	}
	c.n, c.sumNS = 0, 0
	return 1 - speedShare + speedShare*factor, factor
}
