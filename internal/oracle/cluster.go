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

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

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

// DiffCheckpointDirs byte-compares two checkpoint directories: the same
// file names on both sides, every file's bytes identical. It is the
// async-checkpoint equivalence oracle — a cluster checkpointing through
// the background writer must leave a directory byte-for-byte equal to a
// synchronous run of the same schedule (manifests record file names
// relative to themselves, so the differing directory paths never leak
// into the bytes). Both directories must be non-empty: a vacuous
// equivalence proves nothing.
func DiffCheckpointDirs(dirA, dirB string) error {
	list := func(dir string) ([]string, error) {
		ents, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		var names []string
		for _, ent := range ents {
			if ent.IsDir() {
				return nil, fmt.Errorf("oracle: unexpected subdirectory %s in checkpoint dir %s", ent.Name(), dir)
			}
			names = append(names, ent.Name())
		}
		sort.Strings(names)
		return names, nil
	}
	namesA, err := list(dirA)
	if err != nil {
		return fmt.Errorf("oracle: reading %s: %w", dirA, err)
	}
	namesB, err := list(dirB)
	if err != nil {
		return fmt.Errorf("oracle: reading %s: %w", dirB, err)
	}
	if len(namesA) == 0 {
		return fmt.Errorf("oracle: checkpoint dir %s is empty (vacuous equivalence)", dirA)
	}
	if fmt.Sprint(namesA) != fmt.Sprint(namesB) {
		return fmt.Errorf("oracle: checkpoint file sets diverge:\n%s: %v\n%s: %v", dirA, namesA, dirB, namesB)
	}
	for _, name := range namesA {
		a, err := os.ReadFile(filepath.Join(dirA, name))
		if err != nil {
			return fmt.Errorf("oracle: reading %s: %w", filepath.Join(dirA, name), err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, name))
		if err != nil {
			return fmt.Errorf("oracle: reading %s: %w", filepath.Join(dirB, name), err)
		}
		if !bytes.Equal(a, b) {
			return fmt.Errorf("oracle: checkpoint file %s differs between %s (%d bytes) and %s (%d bytes)",
				name, dirA, len(a), dirB, len(b))
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
