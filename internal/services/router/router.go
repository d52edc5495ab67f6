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
)

// hashSeed fixes the SpookyHash seed so every mid-tier instance routes
// identically (required when several mid-tiers front one leaf fleet).
const hashSeed uint64 = 0x5EED0F5EED

// --- wire codecs ---

// EncodeKey encodes a get request.
func EncodeKey(key string) []byte {
	e := wire.NewEncoder(2 + len(key))
	e.String(key)
	return e.Bytes()
}

// DecodeKey decodes a get request.
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

// MidTierConfig parameterizes routing.
type MidTierConfig struct {
	// Replicas is the replication-pool size per key (paper: 3), clamped to
	// the leaf count.
	Replicas int
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

// maxStackReplicas sizes the handler's stack arrays; a larger set spills.
const maxStackReplicas = 4

// NewMidTier builds the Router mid-tier.  Call ConnectLeaves then Start.
func NewMidTier(cfg MidTierConfig) *core.MidTier {
	replicas := cfg.Replicas
	if replicas <= 0 {
		replicas = 3
	}
	// pickSeq rotates gets across a key's replicas, balancing load the
	// way the paper's random replica choice does.
	var pickSeq atomic.Uint64
	return core.NewMidTier(func(ctx *core.Ctx) {
		method := ctx.Req.Method
		var merge func(*core.Ctx, []core.LeafResult)
		switch method {
		case MethodSet:
			merge = mergeSet
		case MethodGet:
			merge = mergeGet
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
		// The strategy and leaf count come from one pinned topology snapshot,
		// so a request's replica set agrees on one epoch while the cluster
		// resizes.
		snap := ctx.Snapshot()
		var shardArr [maxStackReplicas]int
		shards := appendReplicas(shardArr[:0], key, snap.Router(), snap.NumLeaves(), replicas)
		if method == MethodGet {
			shards = shards[pickSeq.Add(1)%uint64(len(shards)):][:1]
		}
		// Sets go to every replica in the pool so the same data resides on
		// several leaves; a get to one.  Fanout copies the calls
		// into its slots before it returns.
		var callArr [maxStackReplicas]core.LeafCall
		calls := callArr[:0]
		for _, s := range shards {
			calls = append(calls, core.LeafCall{Shard: s, Method: method, Payload: ctx.Req.Payload})
		}
		ctx.FanoutTo(calls, merge)
	}, &cfg.Core)
}

// The merges are package-level functions handed their request's Ctx, so a
// request's fan-out allocates nothing for its response path.

// mergeSet acknowledges a set once every replica has stored it.
func mergeSet(ctx *core.Ctx, results []core.LeafResult) {
	for _, r := range results {
		if r.Err != nil {
			ctx.ReplyError(r.Err)
			return
		}
	}
	ctx.Reply(nil)
}

// mergeGet forwards the one replica's reply as it came.
func mergeGet(ctx *core.Ctx, results []core.LeafResult) {
	r := results[0]
	if r.Err != nil {
		ctx.ReplyError(r.Err)
		return
	}
	ctx.Reply(r.Reply)
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
