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
	e.Uvarint(uint64(len(terms)))
	for _, t := range terms {
		e.Uvarint(uint64(t))
	}
	return e.Bytes()
}

// DecodeTerms decodes a term-ID query.
func DecodeTerms(b []byte) ([]int, error) {
	d := wire.NewDecoder(b)
	n := int(d.Uvarint())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n > wire.MaxSliceLen/4 {
		return nil, wire.ErrTooLarge
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.Uvarint())
	}
	return out, d.Err()
}

// EncodeDocIDs encodes a posting-list result (plain fixed-width form, used
// on the front-end wire where clients decode it).
func EncodeDocIDs(ids []uint32) []byte {
	e := wire.NewEncoder(4 + 4*len(ids))
	e.Uint32s(ids)
	return e.Bytes()
}

// DecodeDocIDs decodes a posting-list result.
func DecodeDocIDs(b []byte) ([]uint32, error) {
	d := wire.NewDecoder(b)
	ids := d.Uint32s()
	return ids, d.Err()
}

// EncodeCompressedDocIDs delta+varint compresses a sorted result list for
// the leaf→mid-tier hop (§III-C's compressed posting-list representation).
// Leaf results are sorted by construction (intersection preserves order and
// global IDs are monotone in local IDs under round-robin sharding only per
// shard — so the leaf sorts before compressing).
func EncodeCompressedDocIDs(ids []uint32) ([]byte, error) {
	return postlist.CompressIDs(ids)
}

// DecodeCompressedDocIDs reverses EncodeCompressedDocIDs.
func DecodeCompressedDocIDs(b []byte) ([]uint32, error) {
	return postlist.DecompressIDs(b)
}

// --- leaf ---

// LeafData is one shard of the corpus, indexed: localDocs[i] is the word
// list of the document whose global ID is globalID[i].
type LeafData struct {
	Index    *postlist.Index
	GlobalID []uint32
}

// ShardCorpus splits the corpus round-robin and builds one inverted index
// per shard.  stopTerms is the per-shard stop-list size.
func ShardCorpus(c *dataset.DocCorpus, n, stopTerms int) []LeafData {
	idLists := c.Shard(n)
	out := make([]LeafData, n)
	for s, ids := range idLists {
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

// intersect runs one multi-term intersection against the shard's index —
// the slice-returning form the vectorized batch handler uses so duplicate
// payloads can share one reply.
func intersect(data LeafData, payload []byte) ([]byte, error) {
	terms, err := DecodeTerms(payload)
	if err != nil {
		return nil, err
	}
	local := data.Index.Search(terms)
	global := make([]uint32, len(local))
	for i, id := range local {
		global[i] = data.GlobalID[id]
	}
	// Local IDs are sorted; under round-robin sharding the global
	// mapping is monotone, so the list stays sorted for compression.
	return EncodeCompressedDocIDs(global)
}

// leafScratch recycles a scalar intersection's decoded term list, mapped
// global-ID list, and compressed output across requests.
type leafScratch struct {
	terms  []int
	global []uint32
	comp   []byte
}

var leafScratches = sync.Pool{New: func() any { return new(leafScratch) }}

// intersectEncoded is intersect in streaming form: the request decodes into
// pooled scratch and the compressed posting list goes straight into the
// leaf's pooled reply encoder, so a steady-state scalar intersection
// allocates only what the index search itself does.
func intersectEncoded(data LeafData, payload []byte, reply *wire.Encoder) error {
	sc := leafScratches.Get().(*leafScratch)
	defer leafScratches.Put(sc)
	d := wire.NewDecoder(payload)
	n := int(d.Uvarint())
	if err := d.Err(); err != nil {
		return err
	}
	if n > wire.MaxSliceLen/4 {
		return wire.ErrTooLarge
	}
	sc.terms = sc.terms[:0]
	for i := 0; i < n; i++ {
		sc.terms = append(sc.terms, int(d.Uvarint()))
	}
	if err := d.Err(); err != nil {
		return err
	}
	local := data.Index.Search(sc.terms)
	sc.global = sc.global[:0]
	for _, id := range local {
		sc.global = append(sc.global, data.GlobalID[id])
	}
	comp, err := postlist.CompressIDsInto(sc.comp[:0], sc.global)
	if err != nil {
		return err
	}
	sc.comp = comp
	reply.Raw(comp)
	return nil
}

// NewLeaf builds the Set Algebra leaf microservice over one indexed shard.
// Scalar intersections take the encoded zero-copy path; a batched carrier
// intersects each member's term set as one worker task, and identical term
// payloads within the batch — common when several front-end requests query
// trending terms at once — are intersected once and their compressed result
// shared.
func NewLeaf(data LeafData, opts *core.LeafOptions) *core.Leaf {
	return core.NewLeafEncoded(func(method string, payload []byte, reply *wire.Encoder) error {
		if method != MethodIntersect {
			return fmt.Errorf("setalgebra leaf: unknown method %q", method)
		}
		return intersectEncoded(data, payload, reply)
	}, core.LeafOptionsWithBatch(opts, func(methods []string, payloads [][]byte) ([][]byte, []error) {
		replies := make([][]byte, len(methods))
		errs := make([]error, len(methods))
		seen := make(map[string]int, len(methods))
		for i := range methods {
			if methods[i] != MethodIntersect {
				errs[i] = fmt.Errorf("setalgebra leaf: unknown method %q", methods[i])
				continue
			}
			if j, dup := seen[string(payloads[i])]; dup {
				replies[i], errs[i] = replies[j], errs[j]
				continue
			}
			replies[i], errs[i] = intersect(data, payloads[i])
			seen[string(payloads[i])] = i
		}
		return replies, errs
	}))
}

// --- mid-tier ---

// mergeScratch recycles the mid-tier union's working state: the flat slice
// the per-shard compressed replies decompress into, the per-shard segment
// offsets/views over it, and the merged output.
type mergeScratch struct {
	flat  []uint32
	offs  []int
	segs  [][]uint32
	union []uint32
}

var mergeScratches = sync.Pool{New: func() any { return new(mergeScratch) }}

// NewMidTier builds the Set Algebra mid-tier: forward terms to every leaf,
// union the intersected posting lists received.  Call ConnectLeaves then
// Start.
func NewMidTier(opts *core.Options) *core.MidTier {
	return core.NewMidTier(func(ctx *core.Ctx) {
		if ctx.Req.Method != MethodSearch {
			ctx.ReplyError(fmt.Errorf("setalgebra mid-tier: unknown method %q", ctx.Req.Method))
			return
		}
		if _, err := DecodeTerms(ctx.Req.Payload); err != nil {
			ctx.ReplyError(err)
			return
		}
		// Response path: each shard's compressed list decompresses
		// straight into one pooled flat slice (the replies may alias
		// pooled buffers recycled when this merge returns, so the IDs are
		// materialized here).  Every shard's list arrives sorted — the
		// leaves sort before compressing — so the union is a linear k-way
		// merge of the segments, not a re-sort of the concatenation.
		// Segment boundaries are recorded as offsets and sliced only after
		// every decompress, since appends may reallocate the flat slice.
		ctx.FanoutAll(MethodIntersect, ctx.Req.Payload, func(results []core.LeafResult) {
			sc := mergeScratches.Get().(*mergeScratch)
			defer mergeScratches.Put(sc)
			sc.flat = sc.flat[:0]
			sc.offs = sc.offs[:0]
			for _, r := range results {
				if r.Err != nil {
					ctx.ReplyError(r.Err)
					return
				}
				sc.offs = append(sc.offs, len(sc.flat))
				var err error
				sc.flat, err = postlist.DecompressIDsInto(sc.flat, r.Reply)
				if err != nil {
					ctx.ReplyError(err)
					return
				}
			}
			sc.segs = sc.segs[:0]
			for i, lo := range sc.offs {
				hi := len(sc.flat)
				if i+1 < len(sc.offs) {
					hi = sc.offs[i+1]
				}
				if lo < hi {
					sc.segs = append(sc.segs, sc.flat[lo:hi])
				}
			}
			sc.union = postlist.MergeSortedInto(sc.union[:0], sc.segs)
			e := wire.GetEncoder()
			e.Uint32s(sc.union)
			ctx.Reply(e.Bytes())
			wire.PutEncoder(e)
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
	// its buffer — tens of kilobytes for a one-term query — goes back to the
	// pool instead of to the collector.
	call := c.Go(terms, nil)
	<-call.Done
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
