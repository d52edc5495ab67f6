package router

import (
	"errors"
	"sync"
	"time"

	"musuite/internal/cluster"
	"musuite/internal/core"
	"musuite/internal/memcache"
)

// ClusterConfig assembles an in-process Router deployment: N memcached-style
// leaves fronted by one replicating mid-tier (paper setup: 16-way sharded
// leaves with three replicas).
type ClusterConfig struct {
	// Leaves is the leaf count (default 4).
	Leaves int
	// Replicas is the replication pool size (default 2; paper uses 3 on
	// its 16-leaf testbed).
	Replicas int
	// MidTier and Leaf configure the framework tiers.
	MidTier core.Options
	Leaf    core.LeafOptions
}

// leafNode bundles one leaf's process-local pieces — the store and the
// serving leaf — so runtime add/drain can manage them as a unit alongside the
// mid-tier's topology entry.
type leafNode struct {
	addr  string
	store *memcache.Store
	leaf  *core.Leaf
}

// Cluster is a running Router deployment.
type Cluster struct {
	// Addr is the mid-tier address front-ends dial.
	Addr string

	asm     *Assembly
	midTier *core.MidTier

	mu    sync.Mutex
	nodes []*leafNode
}

// Assembly is a Router deployment's definition with its defaults resolved.
// Router has no offline step — leaves start empty and the load generator
// warms them — so it only carries the config to the tier constructors.
type Assembly struct {
	cfg ClusterConfig
}

// Prepare resolves cfg's defaults.  It reads cfg's data fields only; the
// tiers' framework options go to Leaf and MidTier.
func Prepare(cfg ClusterConfig) *Assembly {
	if cfg.Leaves <= 0 {
		cfg.Leaves = 4
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 2
	}
	cfg.Replicas = min(cfg.Replicas, cfg.Leaves)
	return &Assembly{cfg: cfg}
}

// Leaf builds an unstarted leaf over a fresh store; every Router leaf is
// alike, so the shard index is unused.
func (a *Assembly) Leaf(_ int, opts *core.LeafOptions) (*core.Leaf, error) {
	return NewLeaf(memcache.New(memcache.Config{}), opts), nil
}

// MidTier builds the unconnected replicating mid-tier.
func (a *Assembly) MidTier(opts *core.Options) (*core.MidTier, error) {
	cfg := MidTierConfig{Replicas: a.cfg.Replicas}
	if opts != nil {
		cfg.Core = *opts
	}
	return NewMidTier(cfg), nil
}

// startLeaf spawns one leaf node (store + serving leaf).
func (a *Assembly) startLeaf() (*leafNode, error) {
	store := memcache.New(memcache.Config{})
	n := &leafNode{store: store, leaf: NewLeaf(store, &a.cfg.Leaf)}
	addr, err := n.leaf.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n.addr = addr
	return n, nil
}

// StartCluster launches the deployment.
func StartCluster(cfg ClusterConfig) (*Cluster, error) {
	a := Prepare(cfg)
	a.cfg.Leaf = *core.ShareCores(&a.cfg.Leaf, a.cfg.Leaves)
	cl := &Cluster{asm: a}
	leafAddrs := make([]string, a.cfg.Leaves)
	for i := range leafAddrs {
		n, err := a.startLeaf()
		if err != nil {
			cl.Close()
			return nil, err
		}
		cl.nodes = append(cl.nodes, n)
		leafAddrs[i] = n.addr
	}

	mt, err := a.MidTier(&a.cfg.MidTier)
	if err == nil {
		err = mt.ConnectLeaves(leafAddrs)
	}
	if err != nil {
		cl.Close()
		return nil, err
	}
	addr, err := mt.Start("127.0.0.1:0")
	if err != nil {
		mt.Close()
		cl.Close()
		return nil, err
	}
	cl.midTier = mt
	cl.Addr = addr
	return cl, nil
}

// MidTier exposes the deployment's mid-tier — resize drivers hang off it.
func (c *Cluster) MidTier() *core.MidTier { return c.midTier }

// AddLeaf spins up a whole new leaf node — store, serving leaf — and places
// it in the mid-tier's topology at runtime, returning its shard index.
func (c *Cluster) AddLeaf() (int, error) {
	n, err := c.asm.startLeaf()
	if err != nil {
		return 0, err
	}
	shard, err := c.midTier.AddLeafGroup([]string{n.addr})
	if err != nil {
		n.leaf.Close()
		return 0, err
	}
	c.mu.Lock()
	c.nodes = append(c.nodes, n)
	c.mu.Unlock()
	return shard, nil
}

// DrainLeaf gracefully retires shard's leaf node: the mid-tier drains the
// group (in-flight traffic finishes, pools close), then the leaf server
// stops.  Shards above shift down one index, mirroring the topology.  The
// node also stops on a drain timeout — the topology closed the group anyway
// — but stays up when the drain was rejected outright.
func (c *Cluster) DrainLeaf(shard int, deadline time.Duration) error {
	err := c.midTier.DrainLeafGroup(shard, deadline)
	if err != nil && !errors.Is(err, cluster.ErrDrainTimeout) {
		return err
	}
	c.mu.Lock()
	if shard >= 0 && shard < len(c.nodes) {
		n := c.nodes[shard]
		c.nodes = append(c.nodes[:shard], c.nodes[shard+1:]...)
		c.mu.Unlock()
		n.leaf.Close()
	} else {
		c.mu.Unlock()
	}
	return err
}

// StoreStats returns per-leaf store statistics (replication and balance
// diagnostics).
func (c *Cluster) StoreStats() []memcache.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]memcache.Stats, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.store.Stats()
	}
	return out
}

// LeafHolding reports which leaf indexes currently hold key — used by tests
// to verify replication placement.
func (c *Cluster) LeafHolding(key string) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for i, n := range c.nodes {
		if _, ok := n.store.Get(key); ok {
			out = append(out, i)
		}
	}
	return out
}

// KillLeaf closes one leaf server to exercise fault paths.
func (c *Cluster) KillLeaf(i int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i >= 0 && i < len(c.nodes) {
		c.nodes[i].leaf.Close()
	}
}

// NumLeaves reports the leaf count.
func (c *Cluster) NumLeaves() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.nodes)
}

// Close tears the deployment down.
func (c *Cluster) Close() {
	if c.midTier != nil {
		c.midTier.Close()
	}
	c.mu.Lock()
	nodes := c.nodes
	c.nodes = nil
	c.mu.Unlock()
	for _, n := range nodes {
		n.leaf.Close()
	}
}
