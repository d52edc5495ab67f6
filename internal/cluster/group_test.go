package cluster

import (
	"testing"

	"musuite/internal/rpc"
)

// dialGroupT dials one pool per address and assembles a Group.
func dialGroupT(t *testing.T, addrs []string) *Group {
	t.Helper()
	pools := make([]*rpc.Pool, len(addrs))
	for i, addr := range addrs {
		p, err := rpc.DialPool(addr, 1, nil)
		if err != nil {
			t.Fatalf("dialing %s: %v", addr, err)
		}
		pools[i] = p
	}
	g := &Group{addrs: addrs, pools: pools}
	t.Cleanup(g.Close)
	return g
}

// kill makes replica idx look dead to health checks without tearing down
// the whole group.
func kill(g *Group, idx int) { g.pools[idx].Close() }

func TestPickSkipsDeadReplica(t *testing.T) {
	addrs := startLeaves(t, 3)
	g := dialGroupT(t, addrs)
	kill(g, 1)

	for i := 0; i < 32; i++ {
		_, idx := g.Pick(-1)
		if idx == 1 {
			t.Fatalf("Pick returned dead replica 1 while live replicas exist")
		}
	}
}

func TestPickAllDeadStillReturnsReplica(t *testing.T) {
	addrs := startLeaves(t, 3)
	g := dialGroupT(t, addrs)
	for i := range g.pools {
		kill(g, i)
	}

	// Nothing is healthy: Pick must still hand back some replica so the
	// caller fails fast (and the pool's redial gets its shot) instead of
	// panicking or spinning.
	for i := 0; i < 32; i++ {
		pool, idx := g.Pick(-1)
		if idx < 0 || idx >= len(g.pools) || pool == nil {
			t.Fatalf("Pick(all dead) = (%v, %d), want a valid replica", pool, idx)
		}
	}
}

func TestPickAllButExcludedDeadAvoidsExcluded(t *testing.T) {
	addrs := startLeaves(t, 3)
	g := dialGroupT(t, addrs)
	kill(g, 0)
	kill(g, 1)

	// Replica 2 is the only healthy one but already carries an attempt of
	// this call; the fallback must land on a dead non-excluded replica —
	// not double up on the excluded one.
	for i := 0; i < 32; i++ {
		_, idx := g.Pick(2)
		if idx == 2 {
			t.Fatalf("Pick(exclude=2) returned the excluded replica")
		}
	}
}

func TestPickSingleReplicaIgnoresExclude(t *testing.T) {
	addrs := startLeaves(t, 1)
	g := dialGroupT(t, addrs)
	if _, idx := g.Pick(0); idx != 0 {
		t.Fatalf("Pick on a 1-replica group = %d, want 0 (nowhere else to go)", idx)
	}
}

func TestGroupStateString(t *testing.T) {
	cases := map[GroupState]string{
		GroupActive:    "active",
		GroupDraining:  "draining",
		GroupClosed:    "closed",
		GroupState(99): "unknown",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("GroupState(%d).String() = %q, want %q", s, got, want)
		}
	}
}
