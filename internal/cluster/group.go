package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"musuite/internal/rpc"
)

// GroupState is a leaf group's position in the drain state machine.
type GroupState int32

const (
	// GroupActive — the group is in the current snapshot and receives new
	// calls.
	GroupActive GroupState = iota
	// GroupDraining — the group has been removed from the current snapshot;
	// requests pinned to older snapshots may still complete calls against
	// it, but no new request routes to it.
	GroupDraining
	// GroupClosed — batchers flushed and connection pools shut down.
	GroupClosed
)

// String names the state for operator-facing views.
func (s GroupState) String() string {
	switch s {
	case GroupActive:
		return "active"
	case GroupDraining:
		return "draining"
	case GroupClosed:
		return "closed"
	}
	return "unknown"
}

// Group is one leaf shard's replica set.  Each replica is an independent
// connection pool to one leaf process serving the same shard data; the group
// routes each call to the replica with the fewest outstanding calls
// (join-the-shortest-queue), which steers traffic away from a replica that
// is slow or backed up.
//
// A Group is immutable after construction except for its state word and the
// round-robin cursor, so snapshots can share it freely.
type Group struct {
	addrs []string
	pools []*rpc.Pool
	// batchers, when cross-request batching is enabled, parallels pools:
	// batchers[i] coalesces calls bound for replica i into carrier RPCs.
	batchers []*rpc.Batcher
	// rr rotates the scan start so ties (the common idle case) spread
	// round-robin instead of pinning replica 0.
	rr    atomic.Uint32
	state atomic.Int32
	once  sync.Once
}

// Size reports the replica count.
func (g *Group) Size() int { return len(g.pools) }

// State reports the group's drain state.
func (g *Group) State() GroupState { return GroupState(g.state.Load()) }

// Batcher returns replica idx's batcher, or nil when batching is disabled.
func (g *Group) Batcher(idx int) *rpc.Batcher {
	if idx < len(g.batchers) {
		return g.batchers[idx]
	}
	return nil
}

// Outstanding reports the in-flight calls across every replica pool.
// Members still queued in a batcher are not counted — quiescence detection
// must flush the batchers first (see Topology.DrainGroup).
func (g *Group) Outstanding() int {
	n := 0
	for _, p := range g.pools {
		n += p.Outstanding()
	}
	return n
}

// Pick selects a replica by least-outstanding-calls, breaking ties
// round-robin.  exclude (-1 for none) skips a replica already carrying an
// attempt of the same call, so hedges and retries land elsewhere when the
// group has anywhere else to land.  Dead replicas are skipped while a live
// one exists; if every candidate is dead, Pick still scans round-robin over
// the non-excluded replicas — honoring health on every fallback step, so a
// replica that recovered between the scans is preferred over a corpse — and
// lets the pool's transparent redial take its shot.
func (g *Group) Pick(exclude int) (*rpc.Pool, int) {
	n := len(g.pools)
	if n == 1 {
		return g.pools[0], 0
	}
	start := int(g.rr.Add(1)) % n
	best, bestOut := -1, 0
	for i := 0; i < n; i++ {
		idx := (start + i) % n
		if idx == exclude {
			continue
		}
		p := g.pools[idx]
		if !p.Healthy() {
			continue
		}
		if out := p.Outstanding(); best < 0 || out < bestOut {
			best, bestOut = idx, out
		}
	}
	if best < 0 {
		// Every candidate was dead (or excluded).  Fall back round-robin
		// across the non-excluded replicas, still preferring any that has
		// come back healthy since the first scan.
		for i := 0; i < n; i++ {
			idx := (start + i) % n
			if idx == exclude {
				continue
			}
			if best < 0 {
				best = idx
			}
			if g.pools[idx].Healthy() {
				best = idx
				break
			}
		}
		if best < 0 {
			best = start // nothing but the excluded replica exists
		}
	}
	return g.pools[best], best
}

// closeBatchers flushes and shuts every replica's batcher (idempotent;
// Batcher.Close sends any still-queued members as a final carrier).
func (g *Group) closeBatchers() {
	for _, b := range g.batchers {
		b.Close()
	}
}

// awaitIdle polls until every replica pool has zero in-flight calls or the
// limit passes, reporting whether quiescence was reached.
func (g *Group) awaitIdle(limit time.Time) bool {
	for d := 50 * time.Microsecond; ; {
		if g.Outstanding() == 0 {
			return true
		}
		if !time.Now().Before(limit) {
			return false
		}
		time.Sleep(d)
		if d < 2*time.Millisecond {
			d *= 2
		}
	}
}

// Close shuts the group down exactly once: batchers flush their queued
// members first so nothing sits unsent when the pools beneath them close.
func (g *Group) Close() {
	g.once.Do(func() {
		g.state.Store(int32(GroupClosed))
		g.closeBatchers()
		for _, p := range g.pools {
			p.Close()
		}
	})
}
