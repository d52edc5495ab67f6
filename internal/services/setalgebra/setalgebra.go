// Package setalgebra implements μSuite's Set Algebra: document retrieval by
// set intersection on posting lists (paper §III-C).
//
// The corpus is sharded uniformly across leaves.  Each leaf holds an
// inverted index (with stop-listed high-frequency terms discarded at
// indexing) and intersects its local posting lists for the query terms.
// The mid-tier forwards search terms to every leaf and merges the
// intersected lists it receives via set union.
package setalgebra

import (
	"fmt"
	"slices"
	"sync"

	"musuite/internal/core"
	"musuite/internal/dataset"
	"musuite/internal/postlist"
	"musuite/internal/rpc"
	"musuite/internal/trace"
	"musuite/internal/wire"
)

// Method names on the wire.
const (
	// MethodSearch is the front-end→mid-tier query of search terms.
	MethodSearch = "setalgebra.search"
	// MethodIntersect is the mid-tier→leaf intersection call.
	MethodIntersect = "setalgebra.intersect"
)

// --- wire codecs ---

// EncodeTerms encodes a term-ID query.
func EncodeTerms(terms []int) []byte {
	e := wire.NewEncoder(4 + 4*len(terms))
	putTerms(e, terms)
	return e.Bytes()
}

func putTerms(e *wire.Encoder, terms []int) {
	e.Uvarint(uint64(len(terms)))
	for _, t := range terms {
		e.Uvarint(uint64(t))
	}
}

// DecodeTerms decodes a term-ID query.
func DecodeTerms(b []byte) ([]int, error) {
	return decodeTermsInto(nil, b)
}

// decodeTermsInto is DecodeTerms appending to dst (the leaf's pooled scratch).
func decodeTermsInto(dst []int, b []byte) ([]int, error) {
	var d wire.Decoder
	n, err := termCount(&d, b)
	if err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, n)
	for ; n > 0; n-- {
		dst = append(dst, int(d.Uvarint()))
	}
	return dst, d.Err()
}

// CheckTerms reports whether b is a well-formed term-ID query, walking its
// varints without keeping them: what a tier that only forwards the query
// needs in order to reject a malformed one.
func CheckTerms(b []byte) error {
	var d wire.Decoder
	n, err := termCount(&d, b)
	for ; n > 0 && err == nil; n-- {
		d.Uvarint()
		err = d.Err()
	}
	return err
}

// termCount points d at a term-ID query and reads its count.  Every term is
// at least one byte, so a count beyond the bytes that remain is rejected
// before anything is sized from it.
func termCount(d *wire.Decoder, b []byte) (int, error) {
	d.Reset(b)
	n := d.Uvarint()
	if err := d.Err(); err != nil {
		return 0, err
	}
	if n > uint64(d.Remaining()) {
		return 0, wire.ErrTruncated
	}
	return int(n), nil
}

// EncodeDocIDs encodes a strictly ascending posting-list result as the ID set
// both hops of the response path carry: §III-C's compressed (gap) form when
// sparse, a word-aligned bitmap when dense (postlist.EncodeIDs).
func EncodeDocIDs(ids []uint32) ([]byte, error) {
	return postlist.EncodeIDs(ids)
}

// DecodeDocIDs decodes a posting-list result in either form.  A reply is
// rejected, before anything is sized from it, if its bytes cannot hold it.
func DecodeDocIDs(b []byte) ([]uint32, error) {
	return postlist.DecodeIDs(b)
}

// --- leaf ---

// LeafData is one shard of the corpus, indexed: the document with local ID i
// has global ID GlobalID[i].  GlobalID ascends strictly — the leaf encodes its
// reply as the gaps between the global IDs of an ascending local result, with
// no sort in between, and fails a request whose IDs turn out not to ascend.
type LeafData struct {
	Index    *postlist.Index
	GlobalID []uint32
}

// ShardCorpus splits the corpus round-robin and builds one inverted index
// per shard.  stopTerms is the per-shard stop-list size.  Local IDs are dealt
// in ascending global order whatever order the split lists a shard's
// documents in, which is what makes every LeafData's GlobalID ascend.
func ShardCorpus(c *dataset.DocCorpus, n, stopTerms int) []LeafData {
	idLists := c.Shard(n)
	out := make([]LeafData, n)
	for s, ids := range idLists {
		slices.Sort(ids)
		docs := make([][]int, len(ids))
		gids := make([]uint32, len(ids))
		for local, global := range ids {
			docs[local] = c.Docs[global]
			gids[local] = uint32(global)
		}
		out[s] = LeafData{
			Index:    postlist.BuildIndex(docs, postlist.IndexConfig{StopTerms: stopTerms}),
			GlobalID: gids,
		}
	}
	return out
}

// leafScratch recycles an intersection's decoded term list and the index
// search's working state across requests.
type leafScratch struct {
	terms  []int
	search postlist.IntersectScratch
}

var leafScratches = sync.Pool{New: func() any { return new(leafScratch) }}

// intersectEncoded runs one multi-term intersection against the shard's
// index.  The request decodes into pooled scratch, the search intersects on
// pooled scratch, and one loop maps each local ID to its global ID and writes
// it — a gap or a bit, in the form the result's density picks — straight into
// the leaf's pooled reply encoder, so a steady-state intersection allocates
// nothing and touches a result ID once.
func intersectEncoded(data LeafData, payload []byte, reply *wire.Encoder) error {
	sc := leafScratches.Get().(*leafScratch)
	defer leafScratches.Put(sc)
	var err error
	if sc.terms, err = decodeTermsInto(sc.terms[:0], payload); err != nil {
		return err
	}
	local := data.Index.SearchInto(&sc.search, sc.terms)
	if bad := postlist.EncodeIDsVia(reply, local, data.GlobalID); bad >= 0 {
		return fmt.Errorf("setalgebra leaf: global ID %d of local document %d does not ascend",
			data.GlobalID[local[bad]], local[bad])
	}
	return nil
}

// NewLeaf builds the Set Algebra leaf microservice over one indexed shard.
// Plain requests and the members of a batched carrier take the same
// allocation-free path.
func NewLeaf(data LeafData, opts *core.LeafOptions) *core.Leaf {
	return core.NewLeafEncoded(func(method string, payload []byte, reply *wire.Encoder) error {
		if method != MethodIntersect {
			return fmt.Errorf("setalgebra leaf: unknown method %q", method)
		}
		return intersectEncoded(data, payload, reply)
	}, opts)
}

// --- mid-tier ---

var unions = sync.Pool{New: func() any { return new(postlist.SetUnion) }}

// unionEncoded is the response path: each shard's ID set goes into one pooled
// postlist.SetUnion — a gap list decoded, a bitmap read in place, so the union
// is encoded before the replies' pooled buffers are recycled — which writes
// the union one hop on in whichever form its density picks.
func unionEncoded(results []core.LeafResult, reply *wire.Encoder) error {
	u := unions.Get().(*postlist.SetUnion)
	defer unions.Put(u)
	u.Reset()
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
		if err := u.Add(r.Reply); err != nil {
			return err
		}
	}
	u.Encode(reply)
	return nil
}

// NewMidTier builds the Set Algebra mid-tier: forward terms to every leaf,
// union the intersected posting lists received.  Call ConnectLeaves then
// Start.
func NewMidTier(opts *core.Options) *core.MidTier {
	return core.NewMidTier(func(ctx *core.Ctx) {
		if ctx.Req.Method != MethodSearch {
			ctx.ReplyError(fmt.Errorf("setalgebra mid-tier: unknown method %q", ctx.Req.Method))
			return
		}
		if err := CheckTerms(ctx.Req.Payload); err != nil {
			ctx.ReplyError(err)
			return
		}
		ctx.FanoutAll(MethodIntersect, ctx.Req.Payload, func(results []core.LeafResult) {
			e := wire.GetEncoder()
			defer wire.PutEncoder(e)
			if err := unionEncoded(results, e); err != nil {
				ctx.ReplyError(err)
				return
			}
			ctx.Reply(e.Bytes())
		})
	}, opts)
}

// --- front-end client ---

// Client is the front-end's typed handle on a Set Algebra deployment.
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

// Search returns the global doc IDs containing all query terms (after each
// shard's stop-list filtering), sorted ascending.
func (c *Client) Search(terms []int) ([]uint32, error) {
	// Go + Release rather than Call: the IDs are decoded out of the reply, so
	// its buffer goes back to the pool, not to the collector; so does the
	// query's encoder, which the write queue has copied by the time Go returns.
	e := wire.GetEncoder()
	putTerms(e, terms)
	call := c.rpc.Go(MethodSearch, e.Bytes(), nil, nil)
	<-call.Done
	wire.PutEncoder(e)
	ids, err := []uint32(nil), call.Err
	if err == nil {
		ids, err = DecodeDocIDs(call.Reply)
	}
	call.Release()
	return ids, err
}

// Go issues an asynchronous search (for load generators).
func (c *Client) Go(terms []int, done chan *rpc.Call) *rpc.Call {
	return c.rpc.Go(MethodSearch, EncodeTerms(terms), nil, done)
}

// GoSpan issues an asynchronous search carrying a span context, tracing the
// request end to end (used by sampling load generators).
func (c *Client) GoSpan(terms []int, sc trace.SpanContext, done chan *rpc.Call) *rpc.Call {
	return c.rpc.GoSpan(MethodSearch, EncodeTerms(terms), sc, nil, done)
}

// Close releases the connection.
func (c *Client) Close() error { return c.rpc.Close() }

// --- cluster ---

// ClusterConfig assembles an in-process Set Algebra deployment.
type ClusterConfig struct {
	// Corpus is the document corpus to serve.
	Corpus *dataset.DocCorpus
	// Shards is the leaf count (paper: 4-way).
	Shards int
	// StopTerms is the per-shard stop-list size (default 10).
	StopTerms int
	// LeafReplicas is the number of leaf processes serving each shard
	// (default 1).  With >1 the mid-tier load-balances, hedges, and
	// retries across the replicas of a shard.
	LeafReplicas int
	// MidTier and Leaf configure the framework tiers.
	MidTier core.Options
	Leaf    core.LeafOptions
}

// Cluster is a running Set Algebra deployment.  Set Algebra partitions
// posting lists per shard, so add/drain on MidTier().Topology() is for
// failure drills, not data-aware resharding.
type Cluster struct {
	*core.Tiers
	// Shards exposes the indexed shards (tests verify stop-listing).
	Shards []LeafData
}

// Assembly is the offline half of a deployment: the corpus, sharded and
// indexed when the first leaf is constructed, so the mid-tier process —
// which only fans out and merges — indexes nothing.  A deployment is
// assembled from one goroutine; an Assembly is not safe for concurrent use.
type Assembly struct {
	cfg    ClusterConfig
	shards []LeafData // nil until the first leaf is built
}

// Prepare resolves cfg's defaults.  It reads cfg's data fields only; the
// tiers' framework options go to Leaf and MidTier.
func Prepare(cfg ClusterConfig) *Assembly {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.StopTerms <= 0 {
		cfg.StopTerms = 10
	}
	return &Assembly{cfg: cfg}
}

// Leaf builds an unstarted leaf over one shard's inverted index.
func (a *Assembly) Leaf(shard int, opts *core.LeafOptions) (*core.Leaf, error) {
	if shard < 0 || shard >= a.cfg.Shards {
		return nil, fmt.Errorf("setalgebra: shard %d outside 0..%d", shard, a.cfg.Shards-1)
	}
	if a.shards == nil {
		a.shards = ShardCorpus(a.cfg.Corpus, a.cfg.Shards, a.cfg.StopTerms)
	}
	return NewLeaf(a.shards[shard], opts), nil
}

// MidTier builds the unconnected fan-out/union mid-tier.
func (a *Assembly) MidTier(opts *core.Options) (*core.MidTier, error) {
	return NewMidTier(opts), nil
}

// StartCluster launches the deployment.
func StartCluster(cfg ClusterConfig) (*Cluster, error) {
	a := Prepare(cfg)
	tiers, err := core.StartTiers(a.cfg.Shards, cfg.LeafReplicas, &cfg.Leaf, a.Leaf,
		func() (*core.MidTier, error) { return a.MidTier(&cfg.MidTier) })
	if err != nil {
		return nil, err
	}
	return &Cluster{Tiers: tiers, Shards: a.shards}, nil
}
