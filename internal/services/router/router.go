// Package router implements μSuite's Router: a McRouter-like
// replication-based protocol router for scaling fault-tolerant
// memcached-style key-value stores (paper §III-B).
//
// The mid-tier parses client get/set requests, hashes the key with
// SpookyHash to pick a replica pool of leaves, forwards sets to every
// replica (spreading load and providing redundancy), and balances gets
// across replicas.  Leaves wrap an in-process memcached-semantics store
// behind the RPC interface.
package router

import (
	"fmt"
	"strings"
	"sync/atomic"

	"musuite/internal/cluster"
	"musuite/internal/core"
	"musuite/internal/memcache"
	"musuite/internal/rpc"
	"musuite/internal/spooky"
	"musuite/internal/trace"
	"musuite/internal/wire"
)

// Method names on the wire.
const (
	// MethodGet reads a key (front-end→mid-tier and mid-tier→leaf).
	MethodGet = "router.get"
	// MethodSet writes a key (front-end→mid-tier and mid-tier→leaf).
	MethodSet = "router.set"
	// MethodDelete removes a key from all replicas.
	MethodDelete = "router.delete"
)

// hashSeed fixes the SpookyHash seed so every mid-tier instance routes
// identically (required when several mid-tiers front one leaf fleet).
const hashSeed uint64 = 0x5EED0F5EED

// --- wire codecs ---

// EncodeKey encodes a get/delete request.
func EncodeKey(key string) []byte {
	e := wire.NewEncoder(2 + len(key))
	e.String(key)
	return e.Bytes()
}

// DecodeKey decodes a get/delete request.
func DecodeKey(b []byte) (string, error) {
	d := wire.NewDecoder(b)
	key := d.String()
	return key, d.Err()
}

// EncodeKeyValue encodes a set request.
func EncodeKeyValue(key string, value []byte) []byte {
	e := wire.NewEncoder(4 + len(key) + len(value))
	e.String(key)
	e.BytesField(value)
	return e.Bytes()
}

// DecodeKeyValue decodes a set request.
func DecodeKeyValue(b []byte) (string, []byte, error) {
	d := wire.NewDecoder(b)
	key := d.String()
	value := d.BytesField()
	return key, value, d.Err()
}

// EncodeGetResponse encodes a get result.
func EncodeGetResponse(found bool, value []byte) []byte {
	e := wire.NewEncoder(3 + len(value))
	e.Bool(found)
	e.BytesField(value)
	return e.Bytes()
}

// DecodeGetResponse decodes a get result.
func DecodeGetResponse(b []byte) (found bool, value []byte, err error) {
	d := wire.NewDecoder(b)
	found = d.Bool()
	value = d.BytesField()
	return found, value, d.Err()
}

// EncodeFound encodes a delete result.
func EncodeFound(found bool) []byte {
	e := wire.NewEncoder(1)
	e.Bool(found)
	return e.Bytes()
}

// DecodeFound decodes a delete result.
func DecodeFound(b []byte) (bool, error) {
	d := wire.NewDecoder(b)
	f := d.Bool()
	return f, d.Err()
}

// --- leaf ---

// applyOp executes one store operation for a leaf request, streaming the
// reply into the pooled encoder.  Set values are read by view (the store
// copies them in) and get values stream out under the store's shard lock, so
// the only steady-state allocation is the key string the store's map index
// requires.
func applyOp(store *memcache.Store, method string, payload []byte, reply *wire.Encoder) error {
	d := wire.NewDecoder(payload)
	switch method {
	case MethodGet:
		key := d.String()
		if err := d.Err(); err != nil {
			return err
		}
		found := store.View(key, func(value []byte) {
			reply.Bool(true)
			reply.BytesField(value)
		})
		if !found {
			reply.Bool(false)
			reply.BytesField(nil)
		}
		return nil
	case MethodSet:
		key := d.String()
		value := d.BytesView()
		if err := d.Err(); err != nil {
			return err
		}
		store.Set(key, value, 0)
		return nil
	case MethodDelete:
		key := d.String()
		if err := d.Err(); err != nil {
			return err
		}
		reply.Bool(store.Delete(key))
		return nil
	}
	return fmt.Errorf("router leaf: unknown method %q", method)
}

// NewLeaf wraps a memcache store as a Router leaf microservice, rewriting
// RPC requests into local store operations exactly as the paper's leaf
// rewrites gRPC queries against its memcached process.  The handler uses the
// encoded form; a batched carrier is the multiget/multiset form, its
// operations running in order as one worker task against the store, one
// dispatch hand-off for the lot and every member reply streamed into the
// carrier's pooled encoder.
func NewLeaf(store *memcache.Store, opts *core.LeafOptions) *core.Leaf {
	return core.NewLeafEncoded(func(method string, payload []byte, reply *wire.Encoder) error {
		return applyOp(store, method, payload, reply)
	}, opts)
}

// --- mid-tier ---

// PrefixRule routes keys with a given prefix to a restricted leaf subset —
// McRouter's "prefix routing" feature (different key namespaces pinned to
// different memcached pools).
type PrefixRule struct {
	// Prefix matches keys by longest-prefix; "" matches everything.
	Prefix string
	// Leaves is the pool of leaf indexes serving matching keys.
	Leaves []int
}

// MidTierConfig parameterizes routing.
type MidTierConfig struct {
	// Replicas is the replication-pool size per key (paper: 3).  Must
	// not exceed the (pool's) leaf count.
	Replicas int
	// PrefixRules optionally partitions the key space across leaf pools
	// by longest-prefix match; keys matching no rule use all leaves.
	PrefixRules []PrefixRule
	// Core configures the framework tier.
	Core core.Options
}

// Replicas returns the leaf shards storing key given numLeaves and the
// replication factor: the SpookyHash-selected primary and the next r−1
// shards, all distinct.  The primary comes from the classic modulo
// placement; ReplicasRouted generalizes over the strategy.
func Replicas(key string, numLeaves, r int) []int {
	return ReplicasRouted(key, cluster.Modulo{}, numLeaves, r)
}

// ReplicasRouted places key on r distinct shards of numLeaves total: the
// strategy-selected primary (SpookyHash of the key fed through the routing
// strategy) and the next r−1 shard indices.  Under cluster.Jump the primary
// placement survives a resize for all but ~1/(n+1) of keys, which keeps a
// resized Router deployment's hit rate largely intact.
func ReplicasRouted(key string, router cluster.Router, numLeaves, r int) []int {
	if numLeaves <= 0 {
		return nil
	}
	if r < 1 {
		r = 1
	}
	if r > numLeaves {
		r = numLeaves
	}
	h := spooky.Hash64([]byte(key), hashSeed)
	primary := router.Shard(h, numLeaves)
	out := make([]int, r)
	for i := 0; i < r; i++ {
		out[i] = (primary + i) % numLeaves
	}
	return out
}

// ReplicasInPool places key on r distinct members of an explicit leaf pool:
// the SpookyHash-selected primary position and the next r−1 pool positions.
func ReplicasInPool(key string, pool []int, r int) []int {
	if len(pool) == 0 {
		return nil
	}
	if r < 1 {
		r = 1
	}
	if r > len(pool) {
		r = len(pool)
	}
	h := spooky.Hash64([]byte(key), hashSeed)
	primary := int(h % uint64(len(pool)))
	out := make([]int, r)
	for i := 0; i < r; i++ {
		out[i] = pool[(primary+i)%len(pool)]
	}
	return out
}

// routeTable is the compiled prefix-routing state.
type routeTable struct {
	rules    []PrefixRule // longest prefix first
	replicas int
}

func newRouteTable(rules []PrefixRule, replicas int) *routeTable {
	ordered := make([]PrefixRule, len(rules))
	copy(ordered, rules)
	// Longest prefix first gives longest-prefix-match by first hit.
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0 && len(ordered[j].Prefix) > len(ordered[j-1].Prefix); j-- {
			ordered[j], ordered[j-1] = ordered[j-1], ordered[j]
		}
	}
	return &routeTable{rules: ordered, replicas: replicas}
}

// route returns the replica set for key.  Callers pass the strategy and
// leaf count read from one pinned topology snapshot, so every route
// computed for one request agrees on one epoch even while the cluster
// resizes.  Prefix-pinned pools name explicit leaf indexes and keep their
// in-pool modulo placement.
func (rt *routeTable) route(key string, router cluster.Router, numLeaves int) []int {
	for _, rule := range rt.rules {
		if strings.HasPrefix(key, rule.Prefix) && len(rule.Leaves) > 0 {
			return ReplicasInPool(key, rule.Leaves, rt.replicas)
		}
	}
	return ReplicasRouted(key, router, numLeaves, rt.replicas)
}

// NewMidTier builds the Router mid-tier.  Call ConnectLeaves then Start.
func NewMidTier(cfg MidTierConfig) *core.MidTier {
	replicas := cfg.Replicas
	if replicas <= 0 {
		replicas = 3
	}
	table := newRouteTable(cfg.PrefixRules, replicas)
	// pickSeq rotates gets across a key's replicas, balancing load the
	// way the paper's random replica choice does.
	var pickSeq atomic.Uint64
	return core.NewMidTier(func(ctx *core.Ctx) {
		switch ctx.Req.Method {
		case MethodSet:
			key, _, err := DecodeKeyValue(ctx.Req.Payload)
			if err != nil {
				ctx.ReplyError(err)
				return
			}
			// Forward the set to every replica in the pool so the
			// same data resides on several leaves.
			snap := ctx.Snapshot()
			shards := table.route(key, snap.Router(), snap.NumLeaves())
			calls := make([]core.LeafCall, len(shards))
			for i, s := range shards {
				calls[i] = core.LeafCall{Shard: s, Method: MethodSet, Payload: ctx.Req.Payload}
			}
			ctx.Fanout(calls, func(results []core.LeafResult) {
				for _, r := range results {
					if r.Err != nil {
						ctx.ReplyError(r.Err)
						return
					}
				}
				ctx.Reply(nil)
			})
		case MethodGet:
			key, err := DecodeKey(ctx.Req.Payload)
			if err != nil {
				ctx.ReplyError(err)
				return
			}
			snap := ctx.Snapshot()
			shards := table.route(key, snap.Router(), snap.NumLeaves())
			shard := shards[pickSeq.Add(1)%uint64(len(shards))]
			ctx.Fanout([]core.LeafCall{{Shard: shard, Method: MethodGet, Payload: ctx.Req.Payload}},
				func(results []core.LeafResult) {
					r := results[0]
					if r.Err != nil {
						ctx.ReplyError(r.Err)
						return
					}
					ctx.Reply(r.Reply)
				})
		case MethodDelete:
			key, err := DecodeKey(ctx.Req.Payload)
			if err != nil {
				ctx.ReplyError(err)
				return
			}
			snap := ctx.Snapshot()
			shards := table.route(key, snap.Router(), snap.NumLeaves())
			calls := make([]core.LeafCall, len(shards))
			for i, s := range shards {
				calls[i] = core.LeafCall{Shard: s, Method: MethodDelete, Payload: ctx.Req.Payload}
			}
			ctx.Fanout(calls, func(results []core.LeafResult) {
				found := false
				for _, r := range results {
					if r.Err != nil {
						ctx.ReplyError(r.Err)
						return
					}
					if f, err := DecodeFound(r.Reply); err == nil && f {
						found = true
					}
				}
				ctx.Reply(EncodeFound(found))
			})
		default:
			ctx.ReplyError(fmt.Errorf("router mid-tier: unknown method %q", ctx.Req.Method))
		}
	}, &cfg.Core)
}

// --- front-end client ---

// Client is the front-end's typed handle on a Router deployment.  It is the
// drop-in proxy interface the paper describes: standard get/set calls with
// routing and redundancy hidden behind it.
type Client struct {
	rpc *rpc.Client
}

// DialClient connects to the mid-tier at addr.
func DialClient(addr string, opts *rpc.ClientOptions) (*Client, error) {
	c, err := rpc.Dial(addr, opts)
	if err != nil {
		return nil, err
	}
	return &Client{rpc: c}, nil
}

// Get reads key, reporting presence.
func (c *Client) Get(key string) ([]byte, bool, error) {
	reply, err := c.rpc.Call(MethodGet, EncodeKey(key))
	if err != nil {
		return nil, false, err
	}
	found, value, err := DecodeGetResponse(reply)
	if err != nil {
		return nil, false, err
	}
	if !found {
		return nil, false, nil
	}
	return value, true, nil
}

// Set writes key=value to the replica pool.
func (c *Client) Set(key string, value []byte) error {
	_, err := c.rpc.Call(MethodSet, EncodeKeyValue(key, value))
	return err
}

// Delete removes key from all replicas, reporting whether any held it.
func (c *Client) Delete(key string) (bool, error) {
	reply, err := c.rpc.Call(MethodDelete, EncodeKey(key))
	if err != nil {
		return false, err
	}
	return DecodeFound(reply)
}

// GoGet issues an asynchronous get (for load generators).
func (c *Client) GoGet(key string, done chan *rpc.Call) *rpc.Call {
	return c.rpc.Go(MethodGet, EncodeKey(key), nil, done)
}

// GoGetSpan issues an asynchronous get carrying a span context, tracing the
// request end to end (used by sampling load generators).
func (c *Client) GoGetSpan(key string, sc trace.SpanContext, done chan *rpc.Call) *rpc.Call {
	return c.rpc.GoSpan(MethodGet, EncodeKey(key), sc, nil, done)
}

// GoSetSpan issues an asynchronous set carrying a span context.
func (c *Client) GoSetSpan(key string, value []byte, sc trace.SpanContext, done chan *rpc.Call) *rpc.Call {
	return c.rpc.GoSpan(MethodSet, EncodeKeyValue(key, value), sc, nil, done)
}

// Close releases the connection.
func (c *Client) Close() error { return c.rpc.Close() }
