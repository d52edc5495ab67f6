package router

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"musuite/internal/cluster"
	"musuite/internal/core"
	"musuite/internal/dataset"
)

func startTestCluster(t *testing.T, leaves, replicas int) (*Cluster, *Client) {
	t.Helper()
	return startRoutedCluster(t, leaves, replicas, nil)
}

// startRoutedCluster starts a cluster whose mid-tier places keys with routing
// (nil: the default, modulo).
func startRoutedCluster(t *testing.T, leaves, replicas int, routing cluster.Router) (*Cluster, *Client) {
	t.Helper()
	cl, err := StartCluster(ClusterConfig{
		Leaves:   leaves,
		Replicas: replicas,
		MidTier:  core.Options{Workers: 2, ResponseThreads: 2, EdgePolicy: core.EdgePolicy{Routing: routing}},
		Leaf:     core.LeafOptions{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	client, err := DialClient(cl.Addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return cl, client
}

func TestCodecs(t *testing.T) {
	k, err := DecodeKey(EncodeKey("user:1"))
	if err != nil || k != "user:1" {
		t.Fatalf("key codec: %q %v", k, err)
	}
	key, val, err := DecodeKeyValue(EncodeKeyValue("k", []byte("v")))
	if err != nil || key != "k" || string(val) != "v" {
		t.Fatalf("kv codec: %q %q %v", key, val, err)
	}
	found, v, err := DecodeGetResponse(EncodeGetResponse(true, []byte("x")))
	if err != nil || !found || string(v) != "x" {
		t.Fatalf("get codec: %v %q %v", found, v, err)
	}
}

func TestReplicasPlacement(t *testing.T) {
	// Distinctness and determinism.
	for _, r := range []int{1, 2, 3} {
		shards := Replicas("some-key", 8, r)
		if len(shards) != r {
			t.Fatalf("r=%d got %d shards", r, len(shards))
		}
		seen := map[int]bool{}
		for _, s := range shards {
			if s < 0 || s >= 8 || seen[s] {
				t.Fatalf("bad placement %v", shards)
			}
			seen[s] = true
		}
	}
	// Replica count clamps to the leaf count.
	if got := Replicas("k", 2, 5); len(got) != 2 {
		t.Fatalf("clamp failed: %v", got)
	}
	// Same key, same placement.
	a := Replicas("stable", 16, 3)
	b := Replicas("stable", 16, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("placement not deterministic")
		}
	}
}

func TestReplicasUniformSpread(t *testing.T) {
	// SpookyHash routing must spread primaries near-uniformly (the
	// paper's motivation for choosing it).
	const leaves, keys = 16, 8000
	counts := make([]int, leaves)
	for i := 0; i < keys; i++ {
		counts[Replicas(fmt.Sprintf("key-%d", i), leaves, 1)[0]]++
	}
	want := float64(keys) / leaves
	for s, c := range counts {
		dev := (float64(c) - want) / want
		if dev < -0.15 || dev > 0.15 {
			t.Errorf("leaf %d primary share deviates %.1f%%", s, dev*100)
		}
	}
}

func TestGetSetEndToEnd(t *testing.T) {
	_, client := startTestCluster(t, 4, 2)

	if _, found, err := client.Get("absent"); err != nil || found {
		t.Fatalf("get absent: %v %v", found, err)
	}
	if err := client.Set("k1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, found, err := client.Get("k1")
	if err != nil || !found || string(v) != "v1" {
		t.Fatalf("get after set: %q %v %v", v, found, err)
	}
	// Overwrite.
	if err := client.Set("k1", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := client.Get("k1"); string(v) != "v2" {
		t.Fatalf("overwrite lost: %q", v)
	}
}

// TestReplicationInvariant: every set lands on exactly the R distinct leaves
// ReplicasRouted names for the mid-tier's routing strategy — under Jump also
// after a leaf joins, where fresh keys follow the grown leaf count.
func TestReplicationInvariant(t *testing.T) {
	for _, routing := range []cluster.Router{cluster.Modulo{}, cluster.Jump{}} {
		t.Run(routing.Name(), func(t *testing.T) {
			cl, client := startRoutedCluster(t, 5, 3, routing)
			checkPlacement(t, cl, client, routing, "rep", 5)
			if _, ok := routing.(cluster.Jump); !ok {
				return
			}
			if _, err := cl.AddLeaf(); err != nil {
				t.Fatal(err)
			}
			checkPlacement(t, cl, client, routing, "grown", 6)
		})
	}
}

// checkPlacement sets 40 fresh keys and checks each is held by exactly the
// leaves ReplicasRouted names over numLeaves.
func checkPlacement(t *testing.T, cl *Cluster, client *Client, routing cluster.Router, prefix string, numLeaves int) {
	t.Helper()
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("%s-%d", prefix, i)
		if err := client.Set(key, []byte("x")); err != nil {
			t.Fatal(err)
		}
		holding := cl.LeafHolding(key)
		want := ReplicasRouted(key, routing, numLeaves, 3)
		slices.Sort(want)
		if !slices.Equal(holding, want) {
			t.Fatalf("key %q on leaves %v, want %v", key, holding, want)
		}
	}
}

// TestGetsAlwaysHitAReplica: every get for a set key succeeds regardless of
// which replica the rotation picks.
func TestGetsAlwaysHitAReplica(t *testing.T) {
	_, client := startTestCluster(t, 5, 3)
	if err := client.Set("hot", []byte("data")); err != nil {
		t.Fatal(err)
	}
	// More gets than replicas so rotation cycles through all of them.
	for i := 0; i < 12; i++ {
		v, found, err := client.Get("hot")
		if err != nil || !found || string(v) != "data" {
			t.Fatalf("get %d: %q %v %v", i, v, found, err)
		}
	}
}

func TestFaultToleranceAfterLeafDeath(t *testing.T) {
	cl, client := startTestCluster(t, 4, 3)
	if err := client.Set("survivor", []byte("alive")); err != nil {
		t.Fatal(err)
	}
	replicas := Replicas("survivor", 4, 3)
	// Kill one replica; the other two still hold the value, so at least
	// some gets must succeed (rotation hits live replicas 2 of 3 times).
	cl.KillLeaf(replicas[0])
	successes := 0
	for i := 0; i < 9; i++ {
		if v, found, err := client.Get("survivor"); err == nil && found && string(v) == "alive" {
			successes++
		}
	}
	if successes == 0 {
		t.Fatal("no get succeeded after single-replica failure")
	}
}

func TestYCSBWorkloadA(t *testing.T) {
	_, client := startTestCluster(t, 4, 2)
	trace := dataset.NewKVTrace(dataset.KVTraceConfig{Keys: 200, ValueSize: 32, Seed: 9})
	// Warm every key so gets can hit.
	for _, op := range trace.WarmupSets() {
		if err := client.Set(op.Key, op.Value); err != nil {
			t.Fatal(err)
		}
	}
	hits, gets := 0, 0
	for _, op := range trace.Ops(500) {
		switch op.Kind {
		case dataset.KVSet:
			if err := client.Set(op.Key, op.Value); err != nil {
				t.Fatal(err)
			}
		case dataset.KVGet:
			gets++
			if _, found, err := client.Get(op.Key); err != nil {
				t.Fatal(err)
			} else if found {
				hits++
			}
		}
	}
	if gets == 0 {
		t.Fatal("trace produced no gets")
	}
	if hits != gets {
		t.Fatalf("%d of %d gets missed after full warmup", gets-hits, gets)
	}
}

func TestLastWriteWinsPerKey(t *testing.T) {
	_, client := startTestCluster(t, 4, 2)
	// Sequential writes to one key: the final read must see the last one
	// on every replica (gets rotate).
	for i := 0; i < 10; i++ {
		if err := client.Set("seq", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		v, found, err := client.Get("seq")
		if err != nil || !found {
			t.Fatal(err)
		}
		if !bytes.Equal(v, []byte("v9")) {
			t.Fatalf("read %q want v9 (stale replica)", v)
		}
	}
}

func TestUnknownMethodRejected(t *testing.T) {
	_, client := startTestCluster(t, 2, 1)
	if _, err := client.rpc.Call("router.flushall", nil); err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("err=%v", err)
	}
}

func TestMalformedPayloadsRejected(t *testing.T) {
	_, client := startTestCluster(t, 2, 1)
	if _, err := client.rpc.Call(MethodSet, []byte{0xFF}); err == nil {
		t.Fatal("malformed set accepted")
	}
	if _, err := client.rpc.Call(MethodGet, []byte{0xFF}); err == nil {
		t.Fatal("malformed get accepted")
	}
}

// Property: routing get-after-set through the full stack preserves values
// for arbitrary keys and payloads.
func TestQuickEndToEndGetAfterSet(t *testing.T) {
	_, client := startTestCluster(t, 4, 2)
	f := func(key string, value []byte) bool {
		if key == "" {
			key = "empty"
		}
		if len(value) > 4096 {
			value = value[:4096]
		}
		if err := client.Set(key, value); err != nil {
			return false
		}
		got, found, err := client.Get(key)
		return err == nil && found && bytes.Equal(got, value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
