package core

import "runtime"

// Tiers is a running in-process deployment of one service: a mid-tier over
// shards × replicas leaves, every hop on loopback TCP.  The services'
// Cluster types embed it.  Runtime add/drain on MidTier().Topology() is a
// failure drill for the data-partitioned services (their shard data is
// pinned at start); only Router re-places keys on a resize.
type Tiers struct {
	// Addr is the mid-tier address front-ends dial.
	Addr string

	midTier *MidTier
	leaves  []*Leaf
}

// ShareCores clones opts (nil allowed) for one of the leaves of an in-process
// deployment.  The paper pins every leaf to its own cores with a taskset;
// these leaves share one host, so an unsized pool gets the leaf's share of
// the cores, not the per-process default: workers beyond that buy no
// parallelism and cost tail latency (DESIGN §5.5.1).  A pool the caller
// sized is left alone.
func ShareCores(opts *LeafOptions, leaves int) *LeafOptions {
	var out LeafOptions
	if opts != nil {
		out = *opts
	}
	if out.Workers <= 0 {
		out.Workers = max(1, runtime.GOMAXPROCS(0)/max(1, leaves))
	}
	return &out
}

// StartLeaves starts shards × replicas leaves on loopback ports, asking
// newLeaf for one unstarted leaf per instance — built with opts, its pool
// sized by ShareCores — and returns them with the replica addresses of each
// shard: the groups ConnectLeafGroups and ConnectEdge take.  On an error
// every leaf already started is closed.
func StartLeaves(shards, replicas int, opts *LeafOptions, newLeaf func(shard int, opts *LeafOptions) (*Leaf, error)) ([]*Leaf, [][]string, error) {
	replicas = max(1, replicas)
	opts = ShareCores(opts, shards*replicas)
	leaves := make([]*Leaf, 0, shards*replicas)
	groups := make([][]string, shards)
	for s := 0; s < shards; s++ {
		for r := 0; r < replicas; r++ {
			leaf, err := newLeaf(s, opts)
			var addr string
			if err == nil {
				addr, err = leaf.Start("127.0.0.1:0")
				leaves = append(leaves, leaf)
			}
			if err != nil {
				for _, l := range leaves {
					l.Close()
				}
				return nil, nil, err
			}
			groups[s] = append(groups[s], addr)
		}
	}
	return leaves, groups, nil
}

// StartTiers starts the leaves (StartLeaves), then connects and starts the
// mid-tier newMidTier builds over them.
func StartTiers(shards, replicas int, opts *LeafOptions, newLeaf func(shard int, opts *LeafOptions) (*Leaf, error), newMidTier func() (*MidTier, error)) (*Tiers, error) {
	leaves, groups, err := StartLeaves(shards, replicas, opts, newLeaf)
	if err != nil {
		return nil, err
	}
	t := &Tiers{leaves: leaves}
	if t.midTier, err = newMidTier(); err == nil {
		if err = t.midTier.ConnectLeafGroups(groups); err == nil {
			t.Addr, err = t.midTier.Start("127.0.0.1:0")
		}
	}
	if err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}

// MidTier exposes the deployment's framework mid-tier — the runtime
// topology admin surface (cluster.ServeAdmin on MidTier().Topology()) and
// resize drivers hang off it.
func (t *Tiers) MidTier() *MidTier { return t.midTier }

// Close tears the deployment down, mid-tier first so no request is served
// against leaves that are already gone.
func (t *Tiers) Close() {
	if t.midTier != nil {
		t.midTier.Close()
	}
	for _, l := range t.leaves {
		l.Close()
	}
}
