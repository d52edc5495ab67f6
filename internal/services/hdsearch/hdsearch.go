// Package hdsearch implements μSuite's HDSearch: content-based image
// similarity search as a three-tier microservice (paper §III-A).
//
// The mid-tier holds multi-probe LSH tables whose entries reference
// {leaf shard, point ID} tuples — it stores no feature vectors.  On a query
// it looks up candidate tuples, fans one RPC per involved shard carrying the
// query vector and that shard's candidate points — as a sparse bitmap of the
// leaf's rows, the form they have from the tables to the scan — and merges
// the leaves' distance-sorted lists into the global top-k.  Leaves hold the sharded
// feature vectors and run the embarrassingly parallel distance kernel.
package hdsearch

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"musuite/internal/ann"
	"musuite/internal/core"
	"musuite/internal/dataset"
	"musuite/internal/kernel"
	"musuite/internal/knn"
	"musuite/internal/lsh"
	"musuite/internal/rpc"
	"musuite/internal/trace"
	"musuite/internal/vec"
	"musuite/internal/wire"
)

// Method names on the wire.
const (
	// MethodSearch is the front-end→mid-tier query.
	MethodSearch = "hdsearch.search"
	// MethodLeafKNN is the mid-tier→leaf candidate-scoring call.
	MethodLeafKNN = "hdsearch.leafknn"
	// MethodLeafANN is the mid-tier→leaf call for leaf-resident ANN
	// indexes: no candidate IDs travel — each leaf probes its own IVF
	// index and returns its shard-local top-k under global IDs.
	MethodLeafANN = "hdsearch.leafann"
)

// Neighbor is one result: a global point ID and its squared Euclidean
// distance to the query.
type Neighbor struct {
	PointID  uint32
	Distance float32
}

// --- wire codecs ---

// EncodeSearchRequest encodes a front-end query.
func EncodeSearchRequest(query vec.Vector, k int) []byte {
	e := wire.NewEncoder(8 + 4*len(query))
	appendSearchRequest(e, query, k)
	return e.Bytes()
}

func appendSearchRequest(e *wire.Encoder, query vec.Vector, k int) {
	e.Uvarint(uint64(k))
	e.Float32s(query)
}

// DecodeSearchRequest decodes a front-end query.
func DecodeSearchRequest(b []byte) (query vec.Vector, k int, err error) {
	d := wire.NewDecoder(b)
	k = int(d.Uvarint())
	query = vec.Vector(d.Float32s())
	return query, k, d.Err()
}

// appendLeafRequest encodes a mid-tier→leaf scoring call onto e: k, the query,
// then the shard's candidates as a sparse bitmap — the indices of its non-zero
// 64-row words as an ascending-uint32 field (count, first, gaps), then their
// masks as a uint64 field.  At LSH's densities a word names ~30 candidates
// for its ~9.5 B, a third of what their gaps cost (DESIGN §5.5.1), and the
// field is most of what the hop moves; it is the only form the wire has.
func appendLeafRequest(e *wire.Encoder, query []float32, set kernel.RowSet, k int) {
	e.Uvarint(uint64(k))
	e.Float32s(query)
	if e.AscendingUint32s(set.Words) >= 0 {
		panic("hdsearch: candidate words not strictly ascending")
	}
	e.Uint64s(set.Masks)
}

// EncodeLeafRequest is the scoring call for a caller that holds the shard's
// candidates as IDs: the list — in any order, repeats allowed — is packed
// into the set it names.
func EncodeLeafRequest(query vec.Vector, ids []uint32, k int) []byte {
	var set kernel.RowSet
	set.Add(ids...)
	// A word costs at most a 5-byte gap and its 8-byte mask.
	e := wire.NewEncoder(32 + 4*len(query) + 13*len(set.Words))
	appendLeafRequest(e, query, set, k)
	return e.Bytes()
}

// DecodeLeafRequest decodes a mid-tier→leaf scoring call, its candidates
// expanded to ascending IDs.
func DecodeLeafRequest(b []byte) (query vec.Vector, ids []uint32, k int, err error) {
	query, set, k, err := decodeLeafRequest(b, nil, kernel.RowSet{})
	if err != nil {
		return nil, nil, 0, err
	}
	return query, set.AppendIDs(nil), k, nil
}

// decodeLeafRequest decodes a scoring call into the caller's scratch: the
// query and the set reuse the capacity of what is passed in.  The decoder
// refuses word indices that do not strictly ascend; a mask count that differs
// from the word count is refused here, as the scan would refuse it.
func decodeLeafRequest(b []byte, query []float32, set kernel.RowSet) ([]float32, kernel.RowSet, int, error) {
	d := wire.NewDecoder(b)
	k := int(d.Uvarint())
	query = d.Float32sInto(query[:0])
	set.Words = d.AscendingUint32sInto(set.Words[:0])
	set.Masks = d.Uint64sInto(set.Masks[:0])
	err := d.Err()
	if err == nil && len(set.Masks) != len(set.Words) {
		err = kernel.ErrRowSetShape
	}
	return query, set, k, err
}

// appendLeafANNRequest encodes a mid-tier→leaf ANN probe onto e: the query
// plus the breadth/rerank knobs (0 = the leaf index's build defaults).  The
// first knob slot carries the family's search breadth — nprobe for the IVF
// kinds, efSearch for hnsw — so one wire format serves every leaf-resident
// kind.  One encoding is broadcast to every shard.
func appendLeafANNRequest(e *wire.Encoder, query vec.Vector, k, nprobe, rerank int) {
	e.Uvarint(uint64(k))
	e.Uvarint(uint64(nprobe))
	e.Uvarint(uint64(rerank))
	e.Float32s(query)
}

// AppendNeighbors appends a distance-sorted result list to e — the
// streaming form the leaf and mid-tier reply paths use with pooled
// encoders.
func AppendNeighbors(e *wire.Encoder, ns []Neighbor) {
	e.Uvarint(uint64(len(ns)))
	for _, n := range ns {
		e.Uint32(n.PointID)
		e.Float32(n.Distance)
	}
}

// EncodeNeighbors encodes a distance-sorted result list.
func EncodeNeighbors(ns []Neighbor) []byte {
	e := wire.NewEncoder(8 + 8*len(ns))
	AppendNeighbors(e, ns)
	return e.Bytes()
}

// DecodeNeighborsInto decodes a result list, appending to dst so callers can
// reuse capacity across replies.  dst grows once, by a count the bytes behind
// it bear out (8 per entry): a reply cannot size more than it carries.
func DecodeNeighborsInto(dst []Neighbor, b []byte) ([]Neighbor, error) {
	d, n, err := openNeighbors(b)
	if err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, Neighbor{PointID: d.Uint32(), Distance: d.Float32()})
	}
	return dst, nil
}

// DecodeNeighbors decodes a result list.
func DecodeNeighbors(b []byte) ([]Neighbor, error) {
	return DecodeNeighborsInto(nil, b)
}

// --- leaf ---

// LeafData is one shard's slice of the corpus: a flat structure-of-arrays
// vector store indexed by local point ID, plus the mapping back to global
// IDs.  Local IDs are dealt in ShardCorpus's locality order, so GlobalID is a
// permutation of the shard's members, not ascending (Set Algebra's leaf
// relies on an ascending map; nothing here reads it as more than a table).
type LeafData struct {
	Store    *kernel.Store
	GlobalID []uint32
	// ANN is the optional leaf-resident sub-linear index over Store (IVF
	// or HNSW per the build config's Kind); nil leaves serve only the
	// brute-force candidate-scoring path.
	ANN ann.Searcher
	// rows is Store as the candidate-scoring path reads it — two 16-bit
	// planes that a scan streams half of (kernel.SplitStore, DESIGN §5.5
	// "Row bytes") — set by scoring.
	rows *kernel.SplitStore
}

// scoring returns the shard as a candidate-scoring leaf holds it: its rows as
// planes, built from Store unless d already carries them (an Assembly builds
// a shard's once, for every replica), and no Store — the planes are the same
// bytes, and a leaf that kept both would hold its shard twice.
func (d LeafData) scoring() LeafData {
	if d.rows == nil {
		d.rows = kernel.Split(d.Store)
	}
	d.Store = nil
	return d
}

// ShardSeed namespaces a base build seed per shard: replicas of the same
// shard build the identical index while distinct shards initialize
// independently.  Every shard build derives its seed here — whether one
// process builds every shard (StartCluster) or each leaf process builds its
// own (Assembly.Leaf) — which is what the byte-identity reproducibility
// test pins.
func ShardSeed(base int64, shard int) int64 {
	return base + int64(shard)*1_000_003
}

// buildLeafANN builds one shard's leaf-resident index in place, with the
// seed namespaced per shard through ShardSeed.
func buildLeafANN(data *LeafData, cfg ann.Config, shard int) error {
	cfg.Seed = ShardSeed(cfg.Seed, shard)
	idx, err := ann.BuildKind(data.Store, cfg)
	if err != nil {
		return fmt.Errorf("hdsearch: shard %d ann build: %w", shard, err)
	}
	data.ANN = idx
	return nil
}

// The row order's signature: localityBits wide (fixed by the sweep in DESIGN
// §5.5 "Row order", not an option) over planes drawn from the package's own
// seed — not the mid-tier index's, so a layout depends on (corpus, shard
// count) alone, whatever index is built over it.
const (
	localityBits = 16
	localitySeed = 0x6c61796f7574
)

// ShardCorpus splits a corpus round-robin into n leaf shards and builds each
// shard's flat kernel store in locality order: rows sorted by a random-
// hyperplane sign signature, ties by global ID, so points that hash alike —
// what every candidate list is made of — are stored side by side and a
// leaf's gather walks runs of adjacent rows.  Membership is c.Shard(n)'s;
// only the order local IDs are dealt in changes, and it is a pure function
// of (corpus, n) on any number of CPUs.  (The corpus is rectangular by
// construction, so the store build cannot fail.)
func ShardCorpus(c *dataset.ImageCorpus, n int) []LeafData {
	return shardCorpus(c, n, localityBits)
}

// shardCorpus is ShardCorpus at a given signature width, for the sweep that
// chose localityBits (0 bits is the round-robin order itself).
func shardCorpus(c *dataset.ImageCorpus, n, bits int) []LeafData {
	// One word per point, signature<<32 | global ID: the sort's tie-break
	// and the ID it carries along are in the word.
	planes := lsh.NewPlanes(localitySeed, bits, c.Dim)
	words := make([]uint64, len(c.Vectors))
	kernel.ParallelFor(runtime.NumCPU(), len(words), func(_, lo, hi int) {
		for g := lo; g < hi; g++ {
			words[g] = uint64(lsh.Signature(planes, 0, bits, c.Vectors[g], nil))<<32 | uint64(g)
		}
	})
	out := make([]LeafData, n)
	var shard []uint64
	for s, ids := range c.Shard(n) {
		shard = shard[:0]
		for _, global := range ids {
			shard = append(shard, words[global])
		}
		slices.Sort(shard)
		ld := LeafData{GlobalID: make([]uint32, len(shard))}
		for local, w := range shard {
			ld.GlobalID[local] = uint32(w)
		}
		st, err := kernel.BuildStoreOrdered(c.Vectors, ld.GlobalID)
		if err != nil {
			panic("hdsearch: ragged corpus: " + err.Error())
		}
		ld.Store = st
		out[s] = ld
	}
	return out
}

// leafScratch recycles the decoded query vector, candidate set, and result
// buffer of a scoring call across requests served by the same leaf worker
// pool.
type leafScratch struct {
	query []float32
	set   kernel.RowSet
	nbrs  []knn.Neighbor
}

var leafScratches = sync.Pool{New: func() any { return new(leafScratch) }}

// leafKNN runs the distance kernel for one scoring call against the shard —
// data as scoring returns it — streaming the distance-sorted global-ID list
// into reply.  The request decodes into pooled scratch (nothing decoded
// survives the call), the scan runs on the leaf's compute engine (an exact
// filter-and-refine over the shard's planes, intra-request parallelism), and
// the reply bytes go straight into the leaf's pooled encoder, so a
// steady-state scoring call allocates nothing.
func leafKNN(eng *kernel.Engine, data LeafData, payload []byte, reply *wire.Encoder) error {
	if data.rows == nil {
		return errors.New("hdsearch leaf: this shard serves a leaf-resident index, not candidate scoring")
	}
	sc := leafScratches.Get().(*leafScratch)
	defer leafScratches.Put(sc)
	query, set, k, err := decodeLeafRequest(payload, sc.query, sc.set)
	sc.query, sc.set = query, set
	if err != nil {
		return err
	}
	// Validate the query dimension once here; the kernels assume it.
	if data.rows.Len() > 0 && len(query) != data.rows.Dim() {
		return vec.ErrDimensionMismatch
	}
	local, err := eng.ScanRowSetSplit(data.rows, query, set, k, sc.nbrs[:0])
	sc.nbrs = local[:0]
	if err != nil {
		return err
	}
	reply.Uvarint(uint64(len(local)))
	for _, n := range local {
		reply.Uint32(data.GlobalID[n.ID])
		reply.Float32(n.Distance)
	}
	return nil
}

// leafANN serves one ANN probe against the shard's leaf-resident index —
// IVF (coarse-quantizer probe, candidate scan, exact re-rank) or HNSW
// (graph traversal; the wire's nprobe slot carries efSearch and rerank is
// moot) — then the same streamed global-ID reply as the brute-force path,
// so the mid-tier merge cannot tell them apart.
func leafANN(eng *kernel.Engine, data LeafData, payload []byte, reply *wire.Encoder) error {
	if data.ANN == nil {
		return errors.New("hdsearch leaf: no ann index on this shard")
	}
	sc := leafScratches.Get().(*leafScratch)
	defer leafScratches.Put(sc)
	d := wire.NewDecoder(payload)
	k := int(d.Uvarint())
	nprobe := int(d.Uvarint())
	rerank := int(d.Uvarint())
	sc.query = d.Float32sInto(sc.query[:0])
	if err := d.Err(); err != nil {
		return err
	}
	// k comes off the wire and sizes the search's heaps; a shard cannot
	// return more neighbours than it has points.
	k = min(k, data.Store.Len())
	local, err := data.ANN.Search(eng, sc.query, k, nprobe, rerank, sc.nbrs[:0])
	sc.nbrs = local[:0]
	if err != nil {
		return err
	}
	reply.Uvarint(uint64(len(local)))
	for _, n := range local {
		reply.Uint32(data.GlobalID[n.ID])
		reply.Float32(n.Distance)
	}
	return nil
}

// NewLeaf builds the HDSearch leaf microservice over one shard.  The handler
// uses the encoded form, so scalar requests and batch-carrier members alike
// stream their result lists into pooled encoders; a whole carrier still runs
// as one worker task, and each query still fails alone.  The shard scan runs
// on the options' compute engine (EnsureLeafKernel supplies one when unset),
// whose counters surface in the leaf's TierStats.  A shard without a
// leaf-resident index is held in its scoring form: the leaf keeps no reference
// to the fp32 block.  One with an index keeps Store, which the index aliases,
// and answers only MethodLeafANN.
func NewLeaf(data LeafData, opts *core.LeafOptions) *core.Leaf {
	opts = core.EnsureLeafKernel(opts)
	eng := opts.Kernel
	if data.ANN == nil {
		data = data.scoring()
	}
	return core.NewLeafEncoded(func(method string, payload []byte, reply *wire.Encoder) error {
		switch method {
		case MethodLeafKNN:
			return leafKNN(eng, data, payload, reply)
		case MethodLeafANN:
			return leafANN(eng, data, payload, reply)
		}
		return fmt.Errorf("hdsearch leaf: unknown method %q", method)
	}, opts)
}

// --- mid-tier ---

// IndexConfig tunes the mid-tier LSH index (see lsh.Config); zero values
// take the paper-tuned defaults targeting ≥93% accuracy.
type IndexConfig = lsh.Config

// BuildIndex constructs the mid-tier's LSH tables over the sharded corpus
// (the offline index-construction step).  Point IDs indexed are *local*
// shard IDs so the leaf can use them directly.
func BuildIndex(shards []LeafData, cfg IndexConfig) (*lsh.Index, error) {
	if len(shards) == 0 {
		return nil, errors.New("hdsearch: no shards")
	}
	stores := make([]*kernel.Store, len(shards))
	for s, shard := range shards {
		stores[s] = shard.Store
	}
	return lsh.Build(stores, cfg)
}

// mergeScratch recycles the streaming top-k heap and drained result list the
// mid-tier response path uses to merge per-shard replies.
type mergeScratch struct {
	top    kernel.TopK
	merged []knn.Neighbor
}

var mergeScratches = sync.Pool{New: func() any { return new(mergeScratch) }}

// openNeighbors reads an encoded neighbor list's length, checked against the
// bytes that follow it (8 per entry) — so a caller can size from it, and its
// n entry reads cannot fail — and returns the decoder at the first entry.
func openNeighbors(b []byte) (d wire.Decoder, n int, err error) {
	d.Reset(b)
	count := d.Uvarint()
	if err := d.Err(); err != nil {
		return d, 0, err
	}
	if count > uint64(d.Remaining()/8) {
		return d, 0, wire.ErrTruncated
	}
	return d, int(count), nil
}

// considerNeighborList decodes one shard's encoded neighbor list straight
// into the streaming top-k — no flattened candidate list, no re-sort; each
// entry is considered (and copied by value) as it decodes.
func considerNeighborList(top *kernel.TopK, b []byte) error {
	d, n, err := openNeighbors(b)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		top.Consider(d.Uint32(), d.Float32())
	}
	return nil
}

// midScratch is one search request's working memory on the mid-tier: the
// decoded query, the per-shard candidate sets the index fills, and the leaf
// calls built from them.  Its lifetime is the handler's: the leaf payloads
// are encoded into the request's fan-out-owned encoder (Ctx.LeafEncoder) and
// ctx.Fanout copies each LeafCall into its own slots before returning, so
// nothing here outlives the handler.
type midScratch struct {
	query   []float32
	byShard []kernel.RowSet
	calls   []core.LeafCall
}

var midScratches = sync.Pool{New: func() any { return new(midScratch) }}

// NewMidTier builds the HDSearch mid-tier microservice around a prebuilt
// candidate index (LSH by default; kd-tree and k-means alternatives are in
// indexes.go).  Call ConnectLeaves then Start on the result.  Leaves return
// global point IDs, so the mid-tier needs only the index.
func NewMidTier(index CandidateIndex, opts *core.Options) *core.MidTier {
	return core.NewMidTier(func(ctx *core.Ctx) {
		if ctx.Req.Method != MethodSearch {
			ctx.ReplyError(fmt.Errorf("hdsearch mid-tier: unknown method %q", ctx.Req.Method))
			return
		}
		sc := midScratches.Get().(*midScratch)
		defer midScratches.Put(sc)
		// A value, not NewDecoder's pointer: the copy of this closure that
		// inlining NewMidTier into Assembly.MidTier compiles puts that one
		// on the heap, one allocation a request.
		var d wire.Decoder
		d.Reset(ctx.Req.Payload)
		k := int(d.Uvarint())
		sc.query = d.Float32sInto(sc.query[:0])
		if err := d.Err(); err != nil {
			ctx.ReplyError(err)
			return
		}
		query := sc.query
		if k <= 0 {
			k = 1
		}
		// Reject mis-dimensioned queries here, before they reach index
		// probes or leaf kernels that assume the corpus dimensionality.
		if dim := index.Dim(); dim > 0 && len(query) != dim {
			ctx.ReplyError(vec.ErrDimensionMismatch)
			return
		}
		// Leaf-resident ANN kinds carry no candidate IDs: broadcast the
		// query (plus the router's nprobe/rerank knobs) and let every
		// shard probe its own IVF index.
		if router, ok := index.(*LeafANN); ok {
			e := ctx.LeafEncoder()
			appendLeafANNRequest(e, query, k, router.NProbe(), router.Rerank())
			ctx.FanoutAll(MethodLeafANN, e.Bytes(), mergeTopK(ctx, k))
			return
		}
		// Request path: LSH lookup, map point IDs → leaf shards, launch
		// clients to leaf microservers (paper Fig. 3), in ascending shard
		// order.  The payloads lie end to end in the encoder the fan-out
		// will own; one the encoder outgrew stays whole in the array it was
		// written to.
		sc.byShard = index.LookupInto(query, sc.byShard)
		calls := sc.calls[:0]
		e := ctx.LeafEncoder()
		for shard, set := range sc.byShard {
			if len(set.Words) == 0 {
				continue
			}
			start := e.Len()
			appendLeafRequest(e, query, set, k)
			calls = append(calls, core.LeafCall{
				Shard:   shard,
				Method:  MethodLeafKNN,
				Payload: e.Bytes()[start:e.Len():e.Len()],
			})
		}
		sc.calls = calls
		if len(calls) == 0 {
			ctx.Reply(EncodeNeighbors(nil))
			return
		}
		ctx.Fanout(calls, mergeTopK(ctx, k))
		// The payloads belong to the fan-out now, and to the pool after it:
		// the scratch must not point into them.
		clear(calls)
	}, opts)
}

// mergeTopK is the shared response path: merge per-shard distance-sorted
// lists into the final k-NN across all shards with a streaming bounded
// heap — each reply entry is considered as it decodes (and copied by value,
// since replies may alias pooled buffers recycled when the merge returns),
// so the merge is O(total·log k) with no flattened candidate list and no
// full sort.  The final reply streams through a pooled encoder.
func mergeTopK(ctx *core.Ctx, k int) func([]core.LeafResult) {
	return func(results []core.LeafResult) {
		sc := mergeScratches.Get().(*mergeScratch)
		defer mergeScratches.Put(sc)
		// k is the client's number and sizes the heap; the merge cannot
		// keep more neighbours than the replies hold.
		total := 0
		for _, r := range results {
			if r.Err != nil {
				ctx.ReplyError(r.Err)
				return
			}
			_, n, err := openNeighbors(r.Reply)
			if err != nil {
				ctx.ReplyError(err)
				return
			}
			total += n
		}
		sc.top.Reset(min(k, total))
		for _, r := range results {
			if err := considerNeighborList(&sc.top, r.Reply); err != nil {
				ctx.ReplyError(err)
				return
			}
		}
		sc.merged = sc.top.AppendSorted(sc.merged[:0])
		e := wire.GetEncoder()
		e.Uvarint(uint64(len(sc.merged)))
		for _, n := range sc.merged {
			e.Uint32(n.ID)
			e.Float32(n.Distance)
		}
		ctx.Reply(e.Bytes())
		wire.PutEncoder(e)
	}
}

// --- front-end client ---

// Client is the front-end's typed handle on an HDSearch deployment.
type Client struct {
	rpc *rpc.Client
}

// DialClient connects a front-end client to the mid-tier at addr.
func DialClient(addr string, opts *rpc.ClientOptions) (*Client, error) {
	c, err := rpc.Dial(addr, opts)
	if err != nil {
		return nil, err
	}
	return &Client{rpc: c}, nil
}

// Search returns the k nearest neighbors of query.  Go + Release rather than
// Call: the request is encoded in a pooled encoder (the write queue has copied
// the frame by the time Go returns) and the neighbors are decoded out of the
// reply, so its buffer goes back to the pool with the call.
func (c *Client) Search(query vec.Vector, k int) ([]Neighbor, error) {
	e := wire.GetEncoder()
	appendSearchRequest(e, query, k)
	call := c.rpc.Go(MethodSearch, e.Bytes(), nil, nil)
	<-call.Done
	wire.PutEncoder(e)
	var ns []Neighbor
	err := call.Err
	if err == nil {
		ns, err = DecodeNeighbors(call.Reply)
	}
	call.Release()
	return ns, err
}

// Go issues an asynchronous search (used by the load generators).
func (c *Client) Go(query vec.Vector, k int, done chan *rpc.Call) *rpc.Call {
	return c.rpc.Go(MethodSearch, EncodeSearchRequest(query, k), nil, done)
}

// GoSpan issues an asynchronous search carrying a span context, tracing the
// request end to end (used by sampling load generators).
func (c *Client) GoSpan(query vec.Vector, k int, sc trace.SpanContext, done chan *rpc.Call) *rpc.Call {
	return c.rpc.GoSpan(MethodSearch, EncodeSearchRequest(query, k), sc, nil, done)
}

// Close releases the connection.
func (c *Client) Close() error { return c.rpc.Close() }
