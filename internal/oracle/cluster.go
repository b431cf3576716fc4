package oracle

// The cluster differential: a 1-shard and an N-shard cluster replaying
// the same trace must make decision-for-decision identical schedules.
// The sharded cluster partitions stations along connected components of
// the candidate graph, runs one serve.Engine per partition, and feeds
// every shard's bandit the globally aggregated slot reward — so on a
// trace whose candidate components respect the partition, sharding must
// be invisible in the decision stream. DiffCluster is closure-based
// because serve (and thus the cluster layer) imports oracle; the caller
// provides a function that builds a cluster with the given shard count,
// replays the trace, and returns the decision dump in global-id space.

import "fmt"

// DiffCluster replays the caller's trace at one shard and at each given
// shard count, and fails on the first decision divergence: a different
// admission set in any slot, a different slot reward, or a different
// accepted-request total. Within one slot the admission order across
// shards is a merge artifact, so both dumps are normalized to ascending
// id order before comparison; rewards are compared exactly (parity
// traces use integer rewards, making float sums order-independent). A
// trivial reference run — nothing submitted or nothing admitted — is an
// error too: a vacuous parity proof proves nothing.
func DiffCluster(run func(shards int) (*ReplayDump, error), shardCounts ...int) error {
	if run == nil {
		return fmt.Errorf("oracle: DiffCluster needs a run function")
	}
	if len(shardCounts) == 0 {
		return fmt.Errorf("oracle: DiffCluster needs at least one shard count")
	}
	ref, err := run(1)
	if err != nil {
		return fmt.Errorf("oracle: cluster shards=1 reference run: %w", err)
	}
	if ref == nil {
		return fmt.Errorf("oracle: cluster shards=1 reference run returned no dump")
	}
	if ref.Submitted == 0 || len(ref.Slots) == 0 {
		return fmt.Errorf("oracle: cluster parity trace is trivial (submitted=%d, admitting slots=%d)",
			ref.Submitted, len(ref.Slots))
	}
	refN := ref.Normalized()
	for _, n := range shardCounts {
		if n < 1 {
			return fmt.Errorf("oracle: bad shard count %d", n)
		}
		got, err := run(n)
		if err != nil {
			return fmt.Errorf("oracle: cluster shards=%d run: %w", n, err)
		}
		if got == nil {
			return fmt.Errorf("oracle: cluster shards=%d run returned no dump", n)
		}
		if d := refN.Diff(got.Normalized()); d != "" {
			return fmt.Errorf("oracle: cluster shards=1 vs shards=%d diverge: %s", n, d)
		}
	}
	return nil
}

// Normalized clones a dump with each slot's admissions sorted
// ascending, removing the admission (and cross-shard merge) order as a
// comparison dimension.
func (d *ReplayDump) Normalized() *ReplayDump {
	out := &ReplayDump{Submitted: d.Submitted, TotalReward: d.TotalReward}
	out.Slots = make([]SlotAdmissions, len(d.Slots))
	for i, s := range d.Slots {
		adm := append([]int(nil), s.Admitted...)
		for j := 1; j < len(adm); j++ {
			for k := j; k > 0 && adm[k] < adm[k-1]; k-- {
				adm[k], adm[k-1] = adm[k-1], adm[k]
			}
		}
		out.Slots[i] = SlotAdmissions{Slot: s.Slot, Admitted: adm, Reward: s.Reward}
	}
	return out
}
