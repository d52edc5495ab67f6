package bench

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"musuite/internal/core"
	"musuite/internal/dataset"
	"musuite/internal/loadgen"
	"musuite/internal/rpc"
	"musuite/internal/services/hdsearch"
	"musuite/internal/services/recommend"
	"musuite/internal/services/router"
	"musuite/internal/services/setalgebra"
	"musuite/internal/telemetry"
	"musuite/internal/trace"
)

// Service is the one definition of a μSuite benchmark: what its canonical
// dataset, deployment and query stream are for a Scale.  Everything that
// stands a service up derives from it — the experiment harness
// (StartService), topology specs (a spec's registered kinds are the Kinds
// here), and the musuite binary's serve and load subcommands — so a tier per
// process, a spec node and an in-process cluster given the same sizes and
// seed serve the same data and are driven by the same queries.
type Service struct {
	// Name labels the benchmark in figures ("HDSearch").
	Name string
	// Kind is the lower-case selector: the topology spec kind, the musuite
	// subcommand argument, and the service's RPC method prefix.
	Kind string
	// Params names the Scale fields that size the service's dataset.
	Params []Param

	define func(s Scale, mode FrameworkMode) definition
}

// Services lists the four benchmarks in the paper's order.
var Services = []*Service{
	{Name: "HDSearch", Kind: "hdsearch", define: defineHDSearch, Params: []Param{
		{"corpus", "corpus size in feature vectors", func(s *Scale) *int { return &s.HDCorpus }},
		{"dim", "feature dimensionality", func(s *Scale) *int { return &s.HDDim }},
		{"clusters", "Gaussian clusters the corpus is drawn from", func(s *Scale) *int { return &s.HDClusters }},
		{"queries", "distinct queries in the load generator's stream", func(s *Scale) *int { return &s.HDQueries }},
	}},
	{Name: "Router", Kind: "router", define: defineRouter, Params: []Param{
		{"keys", "key population", func(s *Scale) *int { return &s.RouterKeys }},
		{"value-size", "value size in bytes", func(s *Scale) *int { return &s.RouterValueSize }},
	}},
	{Name: "SetAlgebra", Kind: "setalgebra", define: defineSetAlgebra, Params: []Param{
		{"docs", "corpus size in documents", func(s *Scale) *int { return &s.Docs }},
		{"vocab", "vocabulary size", func(s *Scale) *int { return &s.Vocab }},
		{"mean-doc-len", "mean words per document", func(s *Scale) *int { return &s.MeanDocLen }},
		{"stop-terms", "per-shard stop-list size", func(s *Scale) *int { return &s.StopTerms }},
	}},
	{Name: "Recommend", Kind: "recommend", define: defineRecommend, Params: []Param{
		{"users", "users (utility-matrix rows)", func(s *Scale) *int { return &s.Users }},
		{"items", "items (utility-matrix columns)", func(s *Scale) *int { return &s.Items }},
		{"ratings", "observed rating tuples", func(s *Scale) *int { return &s.Ratings }},
	}},
}

// ServiceNames lists the four benchmarks in the paper's order.
var ServiceNames = func() []string {
	names := make([]string, len(Services))
	for i, svc := range Services {
		names[i] = svc.Name
	}
	return names
}()

// ServiceByKind looks a benchmark up by its Kind (nil when unknown).
func ServiceByKind(kind string) *Service {
	for _, svc := range Services {
		if svc.Kind == kind {
			return svc
		}
	}
	return nil
}

// Cluster is the handle every service's in-process deployment offers the
// harness; Instance.Cluster holds the concrete *hdsearch.Cluster,
// *router.Cluster, … for experiments that drive one service's own surface
// (Router's AddLeaf/DrainLeaf in the resize and overload experiments).
type Cluster interface {
	MidTier() *core.MidTier
	Close()
}

// Instance is one deployed benchmark service ready to be driven: its
// workload-issuing function, the cluster behind it, and the telemetry probe
// attached to the mid-tier under study.
type Instance struct {
	// Name identifies the benchmark.
	Name string
	// Addr is the mid-tier address the workload dials.
	Addr string
	// Issue launches one query from the service's workload.
	Issue loadgen.IssueFunc
	// Probe instruments the mid-tier (pollers, workers, response
	// threads, leaf connections).
	Probe *telemetry.Probe
	// Cluster is the running deployment.
	Cluster Cluster

	closeClient func()
}

// Close tears the instance down: the front-end connection first, then the
// deployment.  Every reply has been delivered by then, and closing a tier
// waits for its workers, so once Close returns each tier has recorded the
// spans of every request it served.
func (in *Instance) Close() {
	in.closeClient()
	in.Cluster.Close()
}

// FrameworkMode selects the variant of a deployment an experiment runs: the
// mid-tier's policy, HDSearch's index, and the span recorder every tier
// reports to.
type FrameworkMode struct {
	// MidTier is the mid-tier's policy as the tier itself takes it — the
	// §VII dispatch and wait modes, the default edge's tail tolerance,
	// batching and routing, admission.  Pool sizes and connection counts
	// come from the Scale, the recorder and probe from the harness.
	MidTier core.Options
	// Index selects HDSearch's candidate index kind ("" = LSH); the ivf*
	// and hnsw kinds build leaf-resident ANN indexes, at the leaf's default
	// tuning, instead of a mid-tier candidate generator.
	Index hdsearch.IndexKind
	// Spans, when set, receives distributed-tracing spans from every tier
	// of the deployment: the front-end client's root span, the mid-tier's
	// server and leaf-attempt spans, and each leaf's server spans.
	Spans *trace.Recorder
	// SpanSample traces one of every SpanSample front-end requests when
	// Spans is set (values < 1 trace every request).
	SpanSample int
}

// Sampler builds the front-end span sampler for the mode: nil (never
// sampled) when no recorder is attached, otherwise 1-in-SpanSample.
func (mode FrameworkMode) Sampler() *trace.Sampler {
	if mode.Spans == nil {
		return nil
	}
	return trace.NewSampler(max(1, mode.SpanSample))
}

// ClientOptions builds the front-end rpc client options for the mode: the
// span recorder rides along so the client records root client spans for the
// requests it samples.
func (mode FrameworkMode) ClientOptions() *rpc.ClientOptions {
	if mode.Spans == nil {
		return nil
	}
	return &rpc.ClientOptions{Spans: mode.Spans}
}

// midTierOptions builds the instrumented mid-tier options for a scale.
func midTierOptions(s Scale, mode FrameworkMode, probe *telemetry.Probe) core.Options {
	o := mode.MidTier
	o.Workers, o.ResponseThreads, o.ConnsPerShard = s.Workers, s.ResponseThreads, s.LeafConns
	o.Spans, o.Probe = mode.Spans, probe
	return o
}

func leafOptions(s Scale, mode FrameworkMode) core.LeafOptions {
	return core.LeafOptions{
		Workers: s.LeafWorkers,
		Spans:   mode.Spans,
	}
}

// StartService deploys the named benchmark at the given scale and mode.
func StartService(name string, s Scale, mode FrameworkMode) (*Instance, error) {
	svc := ServiceByKind(strings.ToLower(name))
	if svc == nil {
		return nil, fmt.Errorf("bench: unknown service %q", name)
	}
	return svc.Start(s, mode, midTierOptions(s, mode, telemetry.NewProbe()), leafOptions(s, mode))
}

// Start deploys the service in-process — dataset, cluster, front-end client,
// sampled issuer — with the tiers configured by mt and leaf.  mode supplies
// what is not a tier option: HDSearch's index kind and the front-end span
// sampling.  (StartService derives mt and leaf from mode and s; a topology
// spec derives them from its node.)
func (svc *Service) Start(s Scale, mode FrameworkMode, mt core.Options, leaf core.LeafOptions) (*Instance, error) {
	def := svc.define(s, mode)
	cl, addr, err := def.start(mt, leaf)
	if err != nil {
		return nil, err
	}
	issue, closeClient, err := def.workload(addr)
	if err != nil {
		cl.Close()
		return nil, err
	}
	return &Instance{Name: svc.Name, Addr: addr, Issue: issue, Probe: mt.Probe, Cluster: cl, closeClient: closeClient}, nil
}

// Leaf builds, unstarted, the leaf a process hosting one shard of the
// service runs, doing only that shard's offline work (its ANN index, its
// NMF model).
func (svc *Service) Leaf(s Scale, mode FrameworkMode, shard int, opts core.LeafOptions) (*core.Leaf, error) {
	return svc.define(s, mode).prepare(true).Leaf(shard, &opts)
}

// MidTier builds, unstarted, the mid-tier a process hosting the service's
// middle tier runs, connected to leaves — the flat address list of the
// `-leaves` flag, replicas of a shard consecutive.
func (svc *Service) MidTier(s Scale, mode FrameworkMode, leaves []string, opts core.Options) (*core.MidTier, error) {
	s.RouterLeaves = len(leaves) // every Router leaf is one address
	def := svc.define(s, mode)
	groups, err := core.GroupAddrs(leaves, def.leafGroup)
	if err != nil {
		return nil, err
	}
	mt, err := def.prepare(false).MidTier(&opts)
	if err != nil {
		return nil, err
	}
	// ConnectLeafGroups closes the mid-tier itself when it fails.
	if err := mt.ConnectLeafGroups(groups); err != nil {
		return nil, err
	}
	return mt, nil
}

// Workload dials the mid-tier of a deployment of the service running at addr
// — wherever its tiers were started from the same Scale — and returns the
// service's canonical query stream with the function that closes the
// connection.  Router's stream first warms every key.
func (svc *Service) Workload(s Scale, mode FrameworkMode, addr string) (loadgen.IssueFunc, func(), error) {
	return svc.define(s, mode).workload(addr)
}

// CompareReplies issues the next n requests of two workloads in lockstep and
// reports the first whose replies differ.  Two issuers built from one Scale
// produce the same request sequence, so this is the equivalence check
// between two deployments of a service: a tier per process against the
// in-process cluster.
func CompareReplies(a, b loadgen.IssueFunc, n int) error {
	done := make(chan *rpc.Call, 1)
	for i := 0; i < n; i++ {
		var calls [2]*rpc.Call
		for side, issue := range []loadgen.IssueFunc{a, b} {
			issue(done)
			calls[side] = <-done
		}
		var err error
		if x, y := calls[0], calls[1]; x.Err != nil || y.Err != nil {
			err = fmt.Errorf("bench: request %d failed: %v / %v", i, x.Err, y.Err)
		} else if !bytes.Equal(x.Reply, y.Reply) {
			err = fmt.Errorf("bench: request %d: replies differ (%d vs %d bytes)", i, len(x.Reply), len(y.Reply))
		}
		calls[0].Release()
		calls[1].Release()
		if err != nil {
			return err
		}
	}
	return nil
}

// definition is what a Service derives from one (Scale, mode): how to start
// it whole, how to build one tier of it, and how to drive it.  The four
// define functions below are the only place a Scale becomes a dataset, a
// ClusterConfig and a query stream, and the only place the seed offsets
// appear:
//
//	HDSearch    corpus Seed        queries Seed+100
//	Router      key trace Seed+200 (warm-up sets, then the op stream)
//	SetAlgebra  corpus Seed+300    queries Seed+301
//	Recommend   corpus Seed+400    models Seed+401(+shard)  pairs Seed+402
type definition struct {
	// start deploys the whole service in-process (the package's
	// StartCluster) and reports the mid-tier address.
	start func(mt core.Options, leaf core.LeafOptions) (Cluster, string, error)
	// prepare does the offline work StartCluster does and returns the
	// per-tier constructors a process hosting one tier uses.  leaves says
	// the caller will build leaves: a mid-tier that only fans out and
	// merges (Set Algebra's) then never generates the corpus.
	prepare func(leaves bool) tiers
	// leafGroup is how many consecutive -leaves addresses serve one shard.
	leafGroup int
	// workload dials addr and returns the issuer and its closer.  Every
	// request carries the sampler's context: the zero context of an
	// unsampled request (or a nil sampler) makes GoSpan exactly Go.
	workload func(addr string) (loadgen.IssueFunc, func(), error)
}

// tiers is a service package's Assembly: the unstarted pieces of a
// deployment, built on the offline work Prepare shares with StartCluster.
type tiers interface {
	Leaf(shard int, opts *core.LeafOptions) (*core.Leaf, error)
	MidTier(opts *core.Options) (*core.MidTier, error)
}

// defineHDSearch: a synthetic image corpus and a query stream of perturbed
// corpus points.
func defineHDSearch(s Scale, mode FrameworkMode) definition {
	corpus := dataset.NewImageCorpus(dataset.ImageCorpusConfig{
		N: s.HDCorpus, Dim: s.HDDim, Clusters: s.HDClusters, Seed: s.Seed,
	})
	cfg := hdsearch.ClusterConfig{
		Corpus:       corpus,
		Shards:       s.Shards,
		LeafReplicas: s.LeafReplicas,
		Kind:         mode.Index,
	}
	return definition{
		start: func(mt core.Options, leaf core.LeafOptions) (Cluster, string, error) {
			c := cfg
			c.MidTier, c.Leaf = mt, leaf
			cl, err := hdsearch.StartCluster(c)
			if err != nil {
				return nil, "", err
			}
			return cl, cl.Addr, nil
		},
		prepare:   func(bool) tiers { return hdsearch.Prepare(cfg) },
		leafGroup: s.LeafReplicas,
		workload: func(addr string) (loadgen.IssueFunc, func(), error) {
			client, err := hdsearch.DialClient(addr, mode.ClientOptions())
			if err != nil {
				return nil, nil, err
			}
			queries := corpus.Queries(s.HDQueries, s.Seed+100)
			sampler := mode.Sampler()
			var next atomic.Uint64
			return func(done chan *rpc.Call) *rpc.Call {
				q := queries[next.Add(1)%uint64(len(queries))]
				return client.GoSpan(q, 5, sampler.Context(), done)
			}, func() { client.Close() }, nil
		},
	}
}

// defineRouter: every key warmed, then a YCSB-A style 50/50 get/set mix over
// a Zipf key population.
func defineRouter(s Scale, mode FrameworkMode) definition {
	cfg := router.ClusterConfig{Leaves: s.RouterLeaves, Replicas: s.RouterReplicas}
	return definition{
		start: func(mt core.Options, leaf core.LeafOptions) (Cluster, string, error) {
			c := cfg
			c.MidTier, c.Leaf = mt, leaf
			cl, err := router.StartCluster(c)
			if err != nil {
				return nil, "", err
			}
			return cl, cl.Addr, nil
		},
		prepare: func(bool) tiers { return router.Prepare(cfg) },
		// Router replicates at the data level (Replicas spreads each key
		// across stores), so leaves stay single-replica transport groups.
		leafGroup: 1,
		workload: func(addr string) (loadgen.IssueFunc, func(), error) {
			client, err := router.DialClient(addr, mode.ClientOptions())
			if err != nil {
				return nil, nil, err
			}
			kvtrace := dataset.NewKVTrace(dataset.KVTraceConfig{
				Keys: s.RouterKeys, ValueSize: s.RouterValueSize, Seed: s.Seed + 200,
			})
			for _, op := range kvtrace.WarmupSets() {
				if err := client.Set(op.Key, op.Value); err != nil {
					client.Close()
					return nil, nil, err
				}
			}
			// Pre-generate the op stream so issuing is allocation-light.
			ops := kvtrace.Ops(1 << 14)
			sampler := mode.Sampler()
			var next atomic.Uint64
			return func(done chan *rpc.Call) *rpc.Call {
				op := ops[next.Add(1)%uint64(len(ops))]
				if op.Kind == dataset.KVGet {
					return client.GoGetSpan(op.Key, sampler.Context(), done)
				}
				return client.GoSetSpan(op.Key, op.Value, sampler.Context(), done)
			}, func() { client.Close() }, nil
		},
	}
}

// defineSetAlgebra: a Zipf-worded corpus and a synthetic query set drawn
// from the word-occurrence probabilities.
func defineSetAlgebra(s Scale, mode FrameworkMode) definition {
	corpus := sync.OnceValue(func() *dataset.DocCorpus {
		return dataset.NewDocCorpus(dataset.DocCorpusConfig{
			Docs: s.Docs, VocabSize: s.Vocab, MeanDocLen: s.MeanDocLen, Seed: s.Seed + 300,
		})
	})
	cfg := setalgebra.ClusterConfig{
		Shards:       s.Shards,
		StopTerms:    s.StopTerms,
		LeafReplicas: s.LeafReplicas,
	}
	return definition{
		start: func(mt core.Options, leaf core.LeafOptions) (Cluster, string, error) {
			c := cfg
			c.Corpus, c.MidTier, c.Leaf = corpus(), mt, leaf
			cl, err := setalgebra.StartCluster(c)
			if err != nil {
				return nil, "", err
			}
			return cl, cl.Addr, nil
		},
		prepare: func(leaves bool) tiers {
			c := cfg
			if leaves {
				c.Corpus = corpus()
			}
			return setalgebra.Prepare(c)
		},
		leafGroup: s.LeafReplicas,
		workload: func(addr string) (loadgen.IssueFunc, func(), error) {
			client, err := setalgebra.DialClient(addr, mode.ClientOptions())
			if err != nil {
				return nil, nil, err
			}
			// Paper: 10K synthetic queries, ≤10 words each.
			queries := corpus().Queries(10000, 10, s.Seed+301)
			sampler := mode.Sampler()
			var next atomic.Uint64
			return func(done chan *rpc.Call) *rpc.Call {
				q := queries[next.Add(1)%uint64(len(queries))]
				return client.GoSpan(q, sampler.Context(), done)
			}, func() { client.Close() }, nil
		},
	}
}

// defineRecommend: leaves trained on a latent-factor rating corpus, queried
// only with unrated {user, item} pairs, as the paper does.
func defineRecommend(s Scale, mode FrameworkMode) definition {
	corpus := dataset.NewRatingCorpus(dataset.RatingCorpusConfig{
		Users: s.Users, Items: s.Items, Ratings: s.Ratings, Seed: s.Seed + 400,
	})
	cfg := recommend.ClusterConfig{
		Corpus:       corpus,
		Shards:       s.Shards,
		Seed:         s.Seed + 401,
		LeafReplicas: s.LeafReplicas,
	}
	return definition{
		start: func(mt core.Options, leaf core.LeafOptions) (Cluster, string, error) {
			c := cfg
			c.MidTier, c.Leaf = mt, leaf
			cl, err := recommend.StartCluster(c)
			if err != nil {
				return nil, "", err
			}
			return cl, cl.Addr, nil
		},
		prepare:   func(bool) tiers { return recommend.Prepare(cfg) },
		leafGroup: s.LeafReplicas,
		workload: func(addr string) (loadgen.IssueFunc, func(), error) {
			client, err := recommend.DialClient(addr, mode.ClientOptions())
			if err != nil {
				return nil, nil, err
			}
			// Paper: 1K {user, item} query pairs from empty utility-matrix
			// cells.
			pairs := corpus.QueryPairs(1000, s.Seed+402)
			sampler := mode.Sampler()
			var next atomic.Uint64
			return func(done chan *rpc.Call) *rpc.Call {
				p := pairs[next.Add(1)%uint64(len(pairs))]
				return client.GoSpan(p[0], p[1], sampler.Context(), done)
			}, func() { client.Close() }, nil
		},
	}
}
