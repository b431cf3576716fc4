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
