package router

import (
	"fmt"
	"testing"

	"musuite/internal/cluster"
	"musuite/internal/core"
)

func TestReplicasInPool(t *testing.T) {
	pool := []int{3, 5, 9}
	got := appendReplicasInPool(nil, []byte("key"), pool, 2)
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	inPool := map[int]bool{3: true, 5: true, 9: true}
	for _, s := range got {
		if !inPool[s] {
			t.Fatalf("shard %d outside pool %v", s, pool)
		}
	}
	if got[0] == got[1] {
		t.Fatalf("duplicate replicas %v", got)
	}
	// Clamping and empty-pool behavior.
	if got := appendReplicasInPool(nil, []byte("k"), pool, 10); len(got) != 3 {
		t.Fatalf("clamp: %v", got)
	}
	if got := appendReplicasInPool(nil, []byte("k"), nil, 2); got != nil {
		t.Fatalf("empty pool: %v", got)
	}
}

func TestRouteTableLongestPrefixMatch(t *testing.T) {
	rt := newRouteTable([]PrefixRule{
		{Prefix: "sess:", Leaves: []int{0, 1}},
		{Prefix: "sess:admin:", Leaves: []int{2}},
		{Prefix: "cache:", Leaves: []int{3, 4, 5}},
	}, 1)
	cases := []struct {
		key  string
		pool map[int]bool
	}{
		{"sess:user42", map[int]bool{0: true, 1: true}},
		{"sess:admin:root", map[int]bool{2: true}},
		{"cache:page", map[int]bool{3: true, 4: true, 5: true}},
		{"other:key", map[int]bool{0: true, 1: true, 2: true, 3: true, 4: true, 5: true}},
	}
	for _, c := range cases {
		shards := rt.route(nil, []byte(c.key), cluster.Modulo{}, 6)
		for _, s := range shards {
			if !c.pool[s] {
				t.Errorf("key %q routed to %d outside pool", c.key, s)
			}
		}
	}
}

func TestRouteTableReplicationWithinPool(t *testing.T) {
	rt := newRouteTable([]PrefixRule{{Prefix: "a:", Leaves: []int{1, 3, 5}}}, 2)
	shards := rt.route(nil, []byte("a:key"), cluster.Modulo{}, 8)
	if len(shards) != 2 {
		t.Fatalf("got %v", shards)
	}
	for _, s := range shards {
		if s != 1 && s != 3 && s != 5 {
			t.Fatalf("replica %d escaped pool", s)
		}
	}
	// Replication clamps to pool size, not total leaves.
	rt1 := newRouteTable([]PrefixRule{{Prefix: "a:", Leaves: []int{2}}}, 3)
	if got := rt1.route(nil, []byte("a:key"), cluster.Modulo{}, 8); len(got) != 1 || got[0] != 2 {
		t.Fatalf("single-leaf pool: %v", got)
	}
}

func TestPrefixRoutingEndToEnd(t *testing.T) {
	cl, err := StartCluster(ClusterConfig{
		Leaves:   6,
		Replicas: 2,
		PrefixRules: []PrefixRule{
			{Prefix: "sess:", Leaves: []int{0, 1}},
			{Prefix: "cache:", Leaves: []int{2, 3, 4, 5}},
		},
		MidTier: core.Options{Workers: 2, ResponseThreads: 2},
		Leaf:    core.LeafOptions{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	client, err := DialClient(cl.Addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Session keys live only on leaves {0,1}.
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("sess:user%d", i)
		if err := client.Set(key, []byte("s")); err != nil {
			t.Fatal(err)
		}
		for _, h := range cl.LeafHolding(key) {
			if h > 1 {
				t.Fatalf("session key %q on leaf %d", key, h)
			}
		}
		// And remain readable through the rotation.
		if _, found, err := client.Get(key); err != nil || !found {
			t.Fatalf("get %q: %v %v", key, found, err)
		}
	}
	// Cache keys live only on leaves {2..5}.
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("cache:obj%d", i)
		if err := client.Set(key, []byte("c")); err != nil {
			t.Fatal(err)
		}
		for _, h := range cl.LeafHolding(key) {
			if h < 2 {
				t.Fatalf("cache key %q on leaf %d", key, h)
			}
		}
	}
	// Unmatched keys may land anywhere; they still round-trip.
	if err := client.Set("global:x", []byte("g")); err != nil {
		t.Fatal(err)
	}
	if v, found, err := client.Get("global:x"); err != nil || !found || string(v) != "g" {
		t.Fatalf("global get: %q %v %v", v, found, err)
	}
}
