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
	"sync/atomic"
	"unsafe"

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

// keyView reads b as a string without copying it: the key of a store call
// that ends before the request's buffer is released.  The store clones a key
// it keeps (memcache: only a new entry does).
func keyView(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// applyOp executes one store operation for a leaf request, streaming the
// reply into the pooled encoder.  Key and set value are read by view (the
// store copies in what it keeps) and get values stream out under the store's
// shard lock, so a steady-state operation on a resident key allocates nothing.
func applyOp(store *memcache.Store, method string, payload []byte, reply *wire.Encoder) error {
	d := wire.NewDecoder(payload)
	key := keyView(d.BytesView())
	switch method {
	case MethodGet:
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
		value := d.BytesView()
		if err := d.Err(); err != nil {
			return err
		}
		store.Set(key, value, 0)
		return nil
	case MethodDelete:
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
	// Sized once, here: appending to nil would allocate twice for r = 2.
	dst := make([]int, 0, max(min(r, numLeaves), 1))
	return appendReplicas(dst, []byte(key), router, numLeaves, r)
}

// appendReplicas is ReplicasRouted on the key's bytes, appending to dst: the
// request path routes on a view of the payload into an array on its stack.
func appendReplicas(dst []int, key []byte, router cluster.Router, numLeaves, r int) []int {
	if numLeaves <= 0 {
		return dst
	}
	r = min(max(r, 1), numLeaves)
	primary := router.Shard(spooky.Hash64(key, hashSeed), numLeaves)
	for i := 0; i < r; i++ {
		dst = append(dst, (primary+i)%numLeaves)
	}
	return dst
}

// appendReplicasInPool places key on r distinct members of an explicit leaf
// pool — the SpookyHash-selected primary position and the next r−1 pool
// positions — appending them to dst.
func appendReplicasInPool(dst []int, key []byte, pool []int, r int) []int {
	if len(pool) == 0 {
		return dst
	}
	r = min(max(r, 1), len(pool))
	primary := int(spooky.Hash64(key, hashSeed) % uint64(len(pool)))
	for i := 0; i < r; i++ {
		dst = append(dst, pool[(primary+i)%len(pool)])
	}
	return dst
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

// route appends the replica set for key to dst.  Callers pass the strategy
// and leaf count read from one pinned topology snapshot, so every route
// computed for one request agrees on one epoch even while the cluster
// resizes.  Prefix-pinned pools name explicit leaf indexes and keep their
// in-pool modulo placement.
func (rt *routeTable) route(dst []int, key []byte, router cluster.Router, numLeaves int) []int {
	for _, rule := range rt.rules {
		if p := rule.Prefix; len(key) >= len(p) && string(key[:len(p)]) == p && len(rule.Leaves) > 0 {
			return appendReplicasInPool(dst, key, rule.Leaves, rt.replicas)
		}
	}
	return appendReplicas(dst, key, router, numLeaves, rt.replicas)
}

// maxStackReplicas sizes the handler's stack arrays; a larger set spills.
const maxStackReplicas = 4

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
		method := ctx.Req.Method
		var merge func([]core.LeafResult)
		switch method {
		case MethodSet:
			merge = func(results []core.LeafResult) {
				for _, r := range results {
					if r.Err != nil {
						ctx.ReplyError(r.Err)
						return
					}
				}
				ctx.Reply(nil)
			}
		case MethodGet:
			merge = func(results []core.LeafResult) {
				r := results[0]
				if r.Err != nil {
					ctx.ReplyError(r.Err)
					return
				}
				ctx.Reply(r.Reply)
			}
		case MethodDelete:
			merge = func(results []core.LeafResult) {
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
			}
		default:
			ctx.ReplyError(fmt.Errorf("router mid-tier: unknown method %q", method))
			return
		}
		// The mid-tier routes on the key where it lies in the request and
		// forwards the payload as it came: a set's value is never touched.
		d := wire.NewDecoder(ctx.Req.Payload)
		key := d.BytesView()
		if method == MethodSet {
			d.BytesView()
		}
		if err := d.Err(); err != nil {
			ctx.ReplyError(err)
			return
		}
		snap := ctx.Snapshot()
		var shardArr [maxStackReplicas]int
		shards := table.route(shardArr[:0], key, snap.Router(), snap.NumLeaves())
		if method == MethodGet {
			shards = shards[pickSeq.Add(1)%uint64(len(shards)):][:1]
		}
		// Sets and deletes go to every replica in the pool so the same data
		// resides on several leaves; a get to one.  Fanout copies the calls
		// into its slots before it returns.
		var callArr [maxStackReplicas]core.LeafCall
		calls := callArr[:0]
		for _, s := range shards {
			calls = append(calls, core.LeafCall{Shard: s, Method: method, Payload: ctx.Req.Payload})
		}
		ctx.Fanout(calls, merge)
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

// call sends the request encoded in e and waits for its reply.  The write
// queue has copied the frame by the time Go returns, so e goes back to its
// pool here; the caller decodes call.Reply and Releases the call, which
// returns the reply's buffer to its pool too.
func (c *Client) call(method string, e *wire.Encoder) *rpc.Call {
	call := c.rpc.Go(method, e.Bytes(), nil, nil)
	<-call.Done
	wire.PutEncoder(e)
	return call
}

// Get reads key, reporting presence.  The value is the caller's own copy.
func (c *Client) Get(key string) (value []byte, found bool, err error) {
	e := wire.GetEncoder()
	e.String(key)
	call := c.call(MethodGet, e)
	if err = call.Err; err == nil {
		found, value, err = DecodeGetResponse(call.Reply)
	}
	call.Release()
	if err != nil || !found {
		return nil, false, err
	}
	return value, true, nil
}

// Set writes key=value to the replica pool.
func (c *Client) Set(key string, value []byte) error {
	e := wire.GetEncoder()
	e.String(key)
	e.BytesField(value)
	call := c.call(MethodSet, e)
	err := call.Err
	call.Release()
	return err
}

// Delete removes key from all replicas, reporting whether any held it.
func (c *Client) Delete(key string) (found bool, err error) {
	e := wire.GetEncoder()
	e.String(key)
	call := c.call(MethodDelete, e)
	if err = call.Err; err == nil {
		found, err = DecodeFound(call.Reply)
	}
	call.Release()
	return found, err
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
