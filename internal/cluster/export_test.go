package cluster

import (
	"mecoffload/internal/mec"
	"mecoffload/internal/serve"
)

// ShardOf reports the shard the router places request id on now.
func (c *Cluster) ShardOf(id uint64) (int, bool) { return c.router.lookup(id) }

// ShardNetwork returns the network shard k's engine schedules over.
func (c *Cluster) ShardNetwork(k int) (*mec.Network, error) { return shardNetwork(c.net, c.owner, k) }

// Home routes spec as intake does and returns its home shard, whether its
// candidates span shards, and the station the home shard's engine takes as
// its access station.
func (c *Cluster) Home(spec serve.RequestSpec) (shard int, spanning bool, access int, err error) {
	sc := c.scratch()
	defer c.submitScratch.Put(sc)
	shard, homed, err := c.place(sc, spec)
	if err != nil {
		return 0, false, 0, err
	}
	_, _, spanning, _ = c.router.route(spec, nil)
	return shard, spanning, homed.AccessStation, nil
}

// Place routes spec as SubmitBatch does and returns its home shard and the
// spec as that shard takes it.
func (c *Cluster) Place(spec serve.RequestSpec) (int, serve.RequestSpec, error) {
	sc := c.scratch()
	defer c.submitScratch.Put(sc)
	return c.place(sc, spec)
}

// HomeSpec is spec as shard takes it, given the candidates of a spanning
// request (nil otherwise).
func (c *Cluster) HomeSpec(shard int, spec serve.RequestSpec, spanCands []int) serve.RequestSpec {
	return c.homeSpec(shard, spec, spanCands)
}

// Solo reports whether the router homes a request arriving at station st
// without building its candidate list.
func (c *Cluster) Solo(st int) bool { return c.router.solo[st] }
