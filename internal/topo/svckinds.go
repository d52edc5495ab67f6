package topo

import (
	"sync/atomic"

	"musuite/internal/core"
	"musuite/internal/dataset"
	"musuite/internal/rpc"
	"musuite/internal/services/hdsearch"
	"musuite/internal/services/recommend"
	"musuite/internal/services/router"
	"musuite/internal/services/setalgebra"
	"musuite/internal/trace"
)

// The four μSuite benchmarks as registered spec kinds: a topology can
// place any of them as a node and the builder deploys the same mid-tier +
// leaf cluster the handwritten harness does, parameterized by the spec's
// shards/replicas/workers and dataset params.  The golden-equivalence
// tests pin spec-driven deployments to the handwritten wiring: same
// responses, same TierStats shapes.

func init() {
	registerKind("hdsearch", []string{"corpus", "dim", "clusters", "queries", "leaf-workers"}, buildHDSearch)
	registerKind("router", []string{"keys", "value-size", "leaf-workers"}, buildRouter)
	registerKind("setalgebra", []string{"docs", "vocab", "mean-doc-len", "stop-terms", "leaf-workers"}, buildSetAlgebra)
	registerKind("recommend", []string{"users", "items", "ratings", "leaf-workers"}, buildRecommend)
}

// kindCoreOptions maps the spec's sizing onto the mid-tier options.
func kindCoreOptions(svc *ServiceSpec, opts BuildOptions) core.Options {
	return core.Options{
		Workers: svc.Workers,
		Probe:   opts.Probe,
		Spans:   opts.Spans,
	}
}

func kindLeafOptions(svc *ServiceSpec, opts BuildOptions) (core.LeafOptions, error) {
	workers, err := paramInt(svc, "leaf-workers", 0)
	if err != nil {
		return core.LeafOptions{}, err
	}
	return core.LeafOptions{
		Workers: workers,
		Probe:   opts.Probe,
		Spans:   opts.Spans,
	}, nil
}

// kindSampler builds the front-end span sampler for a registered entry.
func kindSampler(opts BuildOptions) *trace.Sampler {
	if opts.Spans == nil {
		return nil
	}
	every := opts.SpanSample
	if every < 1 {
		every = 1
	}
	return trace.NewSampler(every)
}

func kindClientOptions(opts BuildOptions) *rpc.ClientOptions {
	if opts.Spans == nil {
		return nil
	}
	return &rpc.ClientOptions{Spans: opts.Spans}
}

func buildHDSearch(spec *Spec, svc *ServiceSpec, opts BuildOptions) (*RegisteredService, error) {
	corpusN, err := paramInt(svc, "corpus", 2000)
	if err != nil {
		return nil, err
	}
	dim, err := paramInt(svc, "dim", 32)
	if err != nil {
		return nil, err
	}
	clusters, err := paramInt(svc, "clusters", 10)
	if err != nil {
		return nil, err
	}
	nq, err := paramInt(svc, "queries", 512)
	if err != nil {
		return nil, err
	}
	leafOpts, err := kindLeafOptions(svc, opts)
	if err != nil {
		return nil, err
	}
	corpus := dataset.NewImageCorpus(dataset.ImageCorpusConfig{
		N: corpusN, Dim: dim, Clusters: clusters, Seed: spec.Seed,
	})
	cl, err := hdsearch.StartCluster(hdsearch.ClusterConfig{
		Corpus:       corpus,
		Shards:       svc.Shards,
		LeafReplicas: svc.Replicas,
		MidTier:      kindCoreOptions(svc, opts),
		Leaf:         leafOpts,
	})
	if err != nil {
		return nil, err
	}
	client, err := hdsearch.DialClient(cl.Addr, kindClientOptions(opts))
	if err != nil {
		cl.Close()
		return nil, err
	}
	queries := corpus.Queries(nq, spec.Seed+100)
	sampler := kindSampler(opts)
	var next atomic.Uint64
	return &RegisteredService{
		Groups:  [][]string{{cl.Addr}},
		MidTier: cl.MidTier(),
		Issue: func(done chan *rpc.Call) *rpc.Call {
			q := queries[next.Add(1)%uint64(len(queries))]
			if sc := sampler.Context(); sc.Sampled() {
				return client.GoSpan(q, 5, sc, done)
			}
			return client.Go(q, 5, done)
		},
		Closers: []func(){cl.Close, func() { client.Close() }},
	}, nil
}

func buildRouter(spec *Spec, svc *ServiceSpec, opts BuildOptions) (*RegisteredService, error) {
	keys, err := paramInt(svc, "keys", 2000)
	if err != nil {
		return nil, err
	}
	valueSize, err := paramInt(svc, "value-size", 64)
	if err != nil {
		return nil, err
	}
	leafOpts, err := kindLeafOptions(svc, opts)
	if err != nil {
		return nil, err
	}
	cl, err := router.StartCluster(router.ClusterConfig{
		Leaves:   svc.Shards,
		Replicas: svc.Replicas,
		MidTier:  kindCoreOptions(svc, opts),
		Leaf:     leafOpts,
	})
	if err != nil {
		return nil, err
	}
	client, err := router.DialClient(cl.Addr, kindClientOptions(opts))
	if err != nil {
		cl.Close()
		return nil, err
	}
	kvtrace := dataset.NewKVTrace(dataset.KVTraceConfig{
		Keys: keys, ValueSize: valueSize, Seed: spec.Seed + 200,
	})
	for _, op := range kvtrace.WarmupSets() {
		if err := client.Set(op.Key, op.Value); err != nil {
			client.Close()
			cl.Close()
			return nil, err
		}
	}
	ops := kvtrace.Ops(1 << 14)
	sampler := kindSampler(opts)
	var next atomic.Uint64
	return &RegisteredService{
		Groups:  [][]string{{cl.Addr}},
		MidTier: cl.MidTier(),
		Issue: func(done chan *rpc.Call) *rpc.Call {
			op := ops[next.Add(1)%uint64(len(ops))]
			if sc := sampler.Context(); sc.Sampled() {
				if op.Kind == dataset.KVGet {
					return client.GoGetSpan(op.Key, sc, done)
				}
				return client.GoSetSpan(op.Key, op.Value, sc, done)
			}
			if op.Kind == dataset.KVGet {
				return client.GoGet(op.Key, done)
			}
			return client.GoSet(op.Key, op.Value, done)
		},
		Closers: []func(){cl.Close, func() { client.Close() }},
	}, nil
}

func buildSetAlgebra(spec *Spec, svc *ServiceSpec, opts BuildOptions) (*RegisteredService, error) {
	docs, err := paramInt(svc, "docs", 1200)
	if err != nil {
		return nil, err
	}
	vocab, err := paramInt(svc, "vocab", 3000)
	if err != nil {
		return nil, err
	}
	meanLen, err := paramInt(svc, "mean-doc-len", 60)
	if err != nil {
		return nil, err
	}
	stopTerms, err := paramInt(svc, "stop-terms", 10)
	if err != nil {
		return nil, err
	}
	leafOpts, err := kindLeafOptions(svc, opts)
	if err != nil {
		return nil, err
	}
	corpus := dataset.NewDocCorpus(dataset.DocCorpusConfig{
		Docs: docs, VocabSize: vocab, MeanDocLen: meanLen, Seed: spec.Seed + 300,
	})
	cl, err := setalgebra.StartCluster(setalgebra.ClusterConfig{
		Corpus:       corpus,
		Shards:       svc.Shards,
		StopTerms:    stopTerms,
		LeafReplicas: svc.Replicas,
		MidTier:      kindCoreOptions(svc, opts),
		Leaf:         leafOpts,
	})
	if err != nil {
		return nil, err
	}
	client, err := setalgebra.DialClient(cl.Addr, kindClientOptions(opts))
	if err != nil {
		cl.Close()
		return nil, err
	}
	queries := corpus.Queries(10000, 10, spec.Seed+301)
	sampler := kindSampler(opts)
	var next atomic.Uint64
	return &RegisteredService{
		Groups:  [][]string{{cl.Addr}},
		MidTier: cl.MidTier(),
		Issue: func(done chan *rpc.Call) *rpc.Call {
			q := queries[next.Add(1)%uint64(len(queries))]
			if sc := sampler.Context(); sc.Sampled() {
				return client.GoSpan(q, sc, done)
			}
			return client.Go(q, done)
		},
		Closers: []func(){cl.Close, func() { client.Close() }},
	}, nil
}

func buildRecommend(spec *Spec, svc *ServiceSpec, opts BuildOptions) (*RegisteredService, error) {
	users, err := paramInt(svc, "users", 60)
	if err != nil {
		return nil, err
	}
	items, err := paramInt(svc, "items", 80)
	if err != nil {
		return nil, err
	}
	ratings, err := paramInt(svc, "ratings", 2500)
	if err != nil {
		return nil, err
	}
	leafOpts, err := kindLeafOptions(svc, opts)
	if err != nil {
		return nil, err
	}
	corpus := dataset.NewRatingCorpus(dataset.RatingCorpusConfig{
		Users: users, Items: items, Ratings: ratings, Seed: spec.Seed + 400,
	})
	cl, err := recommend.StartCluster(recommend.ClusterConfig{
		Corpus:       corpus,
		Shards:       svc.Shards,
		Seed:         spec.Seed + 401,
		LeafReplicas: svc.Replicas,
		MidTier:      kindCoreOptions(svc, opts),
		Leaf:         leafOpts,
	})
	if err != nil {
		return nil, err
	}
	client, err := recommend.DialClient(cl.Addr, kindClientOptions(opts))
	if err != nil {
		cl.Close()
		return nil, err
	}
	pairs := corpus.QueryPairs(1000, spec.Seed+402)
	sampler := kindSampler(opts)
	var next atomic.Uint64
	return &RegisteredService{
		Groups:  [][]string{{cl.Addr}},
		MidTier: cl.MidTier(),
		Issue: func(done chan *rpc.Call) *rpc.Call {
			p := pairs[next.Add(1)%uint64(len(pairs))]
			if sc := sampler.Context(); sc.Sampled() {
				return client.GoSpan(p[0], p[1], sc, done)
			}
			return client.Go(p[0], p[1], done)
		},
		Closers: []func(){cl.Close, func() { client.Close() }},
	}, nil
}
