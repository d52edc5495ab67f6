// Package recommend implements μSuite's Recommend: a user-based
// collaborative-filtering recommender predicting user ratings for items
// (paper §III-D).
//
// Rating tuples are sharded across leaves; each leaf factorizes its sparse
// utility-matrix shard with NMF offline and, at query time, predicts a
// {user, item} rating with an allknn user-neighborhood over the recovered
// latent factors.  The mid-tier is primarily a forwarding service: it fans
// the query pair to every leaf and averages the ratings returned.
package recommend

import (
	"fmt"
	"math"

	"musuite/internal/core"
	"musuite/internal/dataset"
	"musuite/internal/kernel"
	"musuite/internal/matfac"
	"musuite/internal/rpc"
	"musuite/internal/trace"
	"musuite/internal/wire"
)

// Method names on the wire.
const (
	// MethodPredict is both the front-end→mid-tier and mid-tier→leaf
	// rating query.
	MethodPredict = "recommend.predict"
)

// Rating bounds on the MovieLens-style star scale.
const (
	MinRating = 1.0
	MaxRating = 5.0
)

// --- wire codecs ---

// EncodePredictRequest encodes a {user, item} query pair.
func EncodePredictRequest(user, item int) []byte {
	e := wire.NewEncoder(10)
	e.Uvarint(uint64(user))
	e.Uvarint(uint64(item))
	return e.Bytes()
}

// DecodePredictRequest decodes a query pair.
func DecodePredictRequest(b []byte) (user, item int, err error) {
	d := wire.NewDecoder(b)
	user = int(d.Uvarint())
	item = int(d.Uvarint())
	return user, item, d.Err()
}

// DecodePredictResponse decodes a leaf's (or the service's) prediction.
// ok=false means the shard cannot rate the pair (unknown user or item).
func DecodePredictResponse(b []byte) (rating float64, ok bool, err error) {
	d := wire.NewDecoder(b)
	ok = d.Bool()
	rating = d.Float64()
	return rating, ok, d.Err()
}

// --- leaf ---

// LeafConfig parameterizes leaf model training.
type LeafConfig struct {
	// Users and Items are the full matrix dimensions (shared by all
	// shards under round-robin rating sharding).
	Users, Items int
	// Rank, Iterations, Seed tune the NMF (see matfac.Config).
	Rank, Iterations int
	Seed             int64
}

// allknnNeighbors is the allknn neighborhood size of every prediction.
const allknnNeighbors = 10

// LeafModel is one shard's trained state: the NMF factors plus which users
// actually have observations in this shard (cold users keep their random
// initialization and must not contribute predictions).  The user factors are
// additionally held as a flat float32 kernel store — converted once at
// training time — so the per-query neighborhood scan runs on the compute
// engine instead of re-walking [][]float64 rows.  Replicas of a shard share
// one model; each scans with its own leaf's engine.
type LeafModel struct {
	model     *matfac.Model
	userKnown []bool
	itemKnown []bool
	users     *kernel.Store // model.W as float32, one row per user
}

// TrainLeaf factorizes one shard of ratings (the offline step the paper's
// leaves perform).
func TrainLeaf(ratings []dataset.Rating, cfg LeafConfig) (*LeafModel, error) {
	if cfg.Users <= 0 || cfg.Items <= 0 {
		return nil, fmt.Errorf("recommend: invalid matrix shape %dx%d", cfg.Users, cfg.Items)
	}
	data := make([]matfac.Triplet, len(ratings))
	userKnown := make([]bool, cfg.Users)
	itemKnown := make([]bool, cfg.Items)
	for i, r := range ratings {
		data[i] = matfac.Triplet{Row: r.User, Col: r.Item, Val: r.Value}
		if r.User >= 0 && r.User < cfg.Users {
			userKnown[r.User] = true
		}
		if r.Item >= 0 && r.Item < cfg.Items {
			itemKnown[r.Item] = true
		}
	}
	sparse, err := matfac.NewSparse(cfg.Users, cfg.Items, data)
	if err != nil {
		return nil, err
	}
	model, err := matfac.Factorize(sparse, matfac.Config{
		Rank: cfg.Rank, Iterations: cfg.Iterations, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	users, err := kernel.FromFloat64(model.W.Data, model.W.Stride)
	if err != nil {
		return nil, err
	}
	return &LeafModel{
		model:     model,
		userKnown: userKnown,
		itemKnown: itemKnown,
		users:     users,
	}, nil
}

// predict computes this shard's rating estimate for {user, item} via the
// user-neighborhood approach: find the allknn most similar known users in
// latent-factor space (cosine) on eng, then average their factor-model
// ratings for the item, weighted by similarity.  ok is false when the shard
// has never seen the user or the item.
func (lm *LeafModel) predict(eng *kernel.Engine, user, item int) (float64, bool) {
	if !lm.canRate(user, item) {
		return 0, false
	}
	return lm.predictWith(lm.neighborhood(eng, user), user, item), true
}

// canRate reports whether this shard has observations for both the user and
// the item.
func (lm *LeafModel) canRate(user, item int) bool {
	return user >= 0 && user < len(lm.userKnown) &&
		item >= 0 && item < len(lm.itemKnown) &&
		lm.userKnown[user] && lm.itemKnown[item]
}

// neighborhood computes the allknn user neighborhood — the dominant cost of
// a prediction (an exhaustive scan over the shard's latent user vectors).
// The engine applies the known-users mask inline and excludes the query user
// itself, so no per-request exclusion map is built.
func (lm *LeafModel) neighborhood(eng *kernel.Engine, user int) []kernel.Neighbor {
	nbrs, err := eng.CosineNeighbors(lm.users, user, lm.userKnown, allknnNeighbors, nil)
	if err != nil {
		return nil
	}
	return nbrs
}

// predictWith scores item from a precomputed neighborhood of user.
func (lm *LeafModel) predictWith(neighbors []kernel.Neighbor, user, item int) float64 {
	var weighted, weights float64
	for _, n := range neighbors {
		sim := 1 - float64(n.Distance) // cosine similarity
		if sim <= 0 {
			continue
		}
		weighted += sim * lm.model.Predict(int(n.ID), item)
		weights += sim
	}
	var rating float64
	if weights > 0 {
		rating = weighted / weights
	} else {
		// Degenerate neighborhood: fall back to the direct factor
		// model.
		rating = lm.model.Predict(user, item)
	}
	return clamp(rating)
}

func clamp(r float64) float64 {
	if math.IsNaN(r) {
		return MinRating
	}
	if r < MinRating {
		return MinRating
	}
	if r > MaxRating {
		return MaxRating
	}
	return r
}

// NewLeaf builds the Recommend leaf microservice over a trained model.  The
// handler streams each prediction into the leaf's pooled reply encoder, for
// a plain request and a member of a batched carrier alike, and scans the
// neighborhood with the leaf's own engine (EnsureLeafKernel's), so the scans
// feed this leaf's TierStats kernel counters — also when replicas share the
// model.
func NewLeaf(lm *LeafModel, opts *core.LeafOptions) *core.Leaf {
	opts, eng := core.EnsureLeafKernel(opts)
	return core.NewLeafEncoded(func(method string, payload []byte, reply *wire.Encoder) error {
		switch method {
		case MethodPredict:
			user, item, err := DecodePredictRequest(payload)
			if err != nil {
				return err
			}
			rating, ok := lm.predict(eng, user, item)
			reply.Bool(ok)
			reply.Float64(rating)
			return nil
		}
		return errUnknownMethod("leaf", method)
	}, opts)
}

// --- mid-tier ---

// NewMidTier builds the Recommend mid-tier: forward the query pair to every
// leaf, average the ratings of the shards that could rate it.  Call
// ConnectLeaves then Start.
func NewMidTier(opts *core.Options) *core.MidTier {
	return core.NewMidTier(func(ctx *core.Ctx) {
		if ctx.Req.Method != MethodPredict {
			ctx.ReplyError(errUnknownMethod("mid-tier", ctx.Req.Method))
			return
		}
		if _, _, err := DecodePredictRequest(ctx.Req.Payload); err != nil {
			ctx.ReplyError(err)
			return
		}
		ctx.FanoutAllTo(MethodPredict, ctx.Req.Payload, replyPredict)
	}, opts)
}

// replyPredict averages the ratings of the shards that could rate the pair.
// It is a package-level function handed its request's Ctx, so a request's
// fan-out allocates nothing for its response path.
func replyPredict(ctx *core.Ctx, results []core.LeafResult) {
	var sum float64
	var n int
	for _, r := range results {
		if r.Err != nil {
			ctx.ReplyError(r.Err)
			return
		}
		rating, ok, err := DecodePredictResponse(r.Reply)
		if err != nil {
			ctx.ReplyError(err)
			return
		}
		if ok {
			sum += rating
			n++
		}
	}
	e := wire.GetEncoder()
	if n == 0 {
		e.Bool(false)
		e.Float64(0)
	} else {
		e.Bool(true)
		e.Float64(sum / float64(n))
	}
	ctx.Reply(e.Bytes())
	wire.PutEncoder(e)
}

// errUnknownMethod builds the standard rejection.
func errUnknownMethod(tier, method string) error {
	return fmt.Errorf("recommend %s: unknown method %q", tier, method)
}

// --- front-end client ---

// Client is the front-end's typed handle on a Recommend deployment.
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

// Predict returns the service's rating estimate for {user, item}; ok is
// false when no shard could rate the pair.
func (c *Client) Predict(user, item int) (float64, bool, error) {
	reply, err := c.rpc.Call(MethodPredict, EncodePredictRequest(user, item))
	if err != nil {
		return 0, false, err
	}
	rating, ok, err := DecodePredictResponse(reply)
	return rating, ok, err
}

// GoSpan issues an asynchronous prediction carrying a span context, tracing
// the request end to end (used by sampling load generators).
func (c *Client) GoSpan(user, item int, sc trace.SpanContext, done chan *rpc.Call) *rpc.Call {
	return c.rpc.GoSpan(MethodPredict, EncodePredictRequest(user, item), sc, nil, done)
}

// Close releases the connection.
func (c *Client) Close() error { return c.rpc.Close() }
