package cluster

// A request never changes shards after the router homed it, so there is no
// handoff to journal or count. Migration, its phases, Migrations and
// MigratedCounts stay because bench/ladder.go and bench/trace.go, their
// only readers, still compile against them.

// Handoff phases, as Migration.Phase spelled them.
const (
	PhaseCommitted = "committed"
	PhaseAborted   = "aborted"
)

// Migration is the shape of a handoff journal entry.
type Migration struct {
	Global uint64 `json:"global"`
	From   int    `json:"from"`
	To     int    `json:"to"`
	Phase  string `json:"phase"`
	Reason string `json:"reason,omitempty"`
	Slot   int    `json:"slot"`
}

// Migrations always returns nil: no request changes shards.
func (c *Cluster) Migrations() []Migration { return nil }

// MigratedCounts always returns one zero per shard, in and out.
func (c *Cluster) MigratedCounts() (in, out []uint64) {
	return make([]uint64, len(c.nodes)), make([]uint64, len(c.nodes))
}
