//go:build race

package sim

// Under the race detector sync.Pool drops Puts on purpose, so allocation
// pins over pooled scratch do not hold.
func init() { raceEnabled = true }
