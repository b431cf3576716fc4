// Package cluster runs N scheduler shards — each a serve.Engine owning
// one station partition — behind a thin router that homes every incoming
// request from its candidate-station set: on the shard owning all of its
// candidates, or, when they span partitions, on its access station's shard
// if that owns one of them, else on the owner of its smallest candidate.
// The partition follows connected components of the backhaul graph (the
// same components the LP decomposition splits along), shards tick in
// lockstep under one cluster clock with globally aggregated bandit
// feedback, a request stays on the shard it was homed on, and every
// shard's checkpoint sits in one manifest file, a whole recoverable
// generation published by one atomic rename. A station id
// means the same station everywhere: every shard schedules over the whole
// network's numbering, with the stations it does not own masked out. The
// correctness contract is decision parity: on a trace whose candidate
// components respect the partition, a 1-shard and an N-shard cluster make
// identical schedules (oracle.DiffCluster).
package cluster

import (
	"fmt"
	"slices"
	"sort"

	"mecoffload/internal/graph"
	"mecoffload/internal/mec"
	"mecoffload/internal/topology"
)

// Partition assigns every station to exactly one of n shards and
// returns the per-shard station sets (ascending station order inside
// each part, every part non-empty). Connected components of the
// backhaul graph are kept whole whenever there are at least n of them:
// components are visited in ascending min-station order and each goes
// to the currently least-loaded shard by total capacity (ties to the
// lowest shard index), so the layout is deterministic and roughly
// capacity-balanced. With fewer components than shards, stations split
// into contiguous index chunks instead — correctness never depends on
// the partition (a request whose candidates span chunks homes on its
// access station's shard when that owns a candidate, and stays there),
// only parity and reward do: each shard schedules over the backhaul
// links between its own stations (shardNetwork), so paths through another
// chunk are lost.
func Partition(net *mec.Network, n int) ([][]int, error) {
	if net == nil {
		return nil, fmt.Errorf("cluster: nil network")
	}
	nS := net.NumStations()
	if n < 1 {
		n = 1
	}
	if n > nS {
		n = nS
	}
	comps := components(net)
	if len(comps) < n {
		// Contiguous index chunks of near-equal size.
		parts := make([][]int, n)
		for k := 0; k < n; k++ {
			lo, hi := k*nS/n, (k+1)*nS/n
			for i := lo; i < hi; i++ {
				parts[k] = append(parts[k], i)
			}
		}
		return parts, nil
	}
	parts := make([][]int, n)
	load := make([]float64, n)
	for _, comp := range comps {
		best := 0
		for k := 1; k < n; k++ {
			if load[k] < load[best] {
				best = k
			}
		}
		parts[best] = append(parts[best], comp...)
		for _, i := range comp {
			load[best] += net.Capacity(i)
		}
	}
	for k := range parts {
		sort.Ints(parts[k])
	}
	return parts, nil
}

// components returns the connected components of the backhaul graph,
// each in ascending station order, ordered by their minimum station.
func components(net *mec.Network) [][]int {
	nS := net.NumStations()
	parent := make([]int, nS)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	for _, e := range net.Edges() {
		ru, rv := find(e.U), find(e.V)
		if ru != rv {
			if ru > rv {
				ru, rv = rv, ru
			}
			parent[rv] = ru
		}
	}
	byRoot := map[int][]int{}
	for i := 0; i < nS; i++ {
		r := find(i)
		byRoot[r] = append(byRoot[r], i)
	}
	roots := make([]int, 0, len(byRoot))
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	out := make([][]int, 0, len(roots))
	for _, r := range roots {
		out = append(out, byRoot[r])
	}
	return out
}

// shardNetwork returns the network shard k schedules over: every station
// of net under its own id, only the backhaul links with both endpoints
// owned by k, and every station k does not own masked by a full outage
// (capacity scale 0), so no candidate set, LP row or placement of the
// shard's ever names one. An owned station keeps its capacity scale and
// reaches exactly the stations it reaches over the links among the
// shard's own stations, at the same delays. Each station's capacity is
// thus owned by exactly one shard's engine — the cluster never
// double-counts a MHz. A single shard owns everything and gets net
// itself.
func shardNetwork(net *mec.Network, owner []int, k int) (*mec.Network, error) {
	if !slices.ContainsFunc(owner, func(o int) bool { return o != k }) {
		return net, nil
	}
	g := graph.New(net.NumStations())
	for _, e := range net.Edges() {
		if owner[e.U] == k && owner[e.V] == k {
			if _, err := g.AddEdge(e.U, e.V, e.Weight); err != nil {
				return nil, err
			}
		}
	}
	sn, err := mec.NewNetwork(mec.NetworkConfig{
		Stations: net.Stations(),
		Topo:     &topology.Topology{Graph: g, Nodes: net.NodePositions()},
		SlotMHz:  net.SlotMHz(),
		CUnit:    net.CUnit(),
	})
	if err != nil {
		return nil, err
	}
	for i, o := range owner {
		scale := 0.0
		if o == k {
			scale = net.CapacityScale(i)
		}
		if err := sn.SetCapacityScale(i, scale); err != nil {
			return nil, err
		}
	}
	return sn, nil
}
