package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"musuite"
	"musuite/internal/services/hdsearch"
	"musuite/internal/services/router"
	"musuite/internal/services/setalgebra"
	"musuite/internal/trace"
)

// numClients is the closed loop's concurrency: two callers that each wait
// for their reply, sharing one front-end connection.  Two is the host's
// vCPU count; more clients would measure the scheduler, not the services.
const numClients = 2

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// build generates the inputs from seed, deploys the service over
	// loopback TCP, warms it and returns it ready for the measured window.
	// small selects the scaled-down inputs of the self-test.
	build func(seed int64, small bool, tr *tracing) (*deployment, error)
	// probe measures the layers this workload's requests pass through.
	probe func(p *prober, d *deployment) error
	// explain sums, in µs, the per-layer metrics along the blocking path of
	// one request; ledger.explained_frac is that sum over
	// raw.p50_one_caller_us.
	explain func(m map[string]float64) float64
}

var workloads = []workload{
	{
		name:    "router_get",
		why:     "smallest message, one leaf call per request: per-message wire/rpc/core dispatch cost shows here first",
		build:   buildRouter(false),
		probe:   probeRouter,
		explain: explainRouter("memcache.get_ns"),
	},
	{
		name:    "router_set",
		why:     "same layers as router_get used differently: 1 KiB request, empty reply, fan-out to both replicas, store write path",
		build:   buildRouter(true),
		probe:   probeRouter,
		explain: explainRouter("memcache.set_ns"),
	},
	{
		name:    "setalgebra_fanout",
		why:     "4-way FanoutAll with variable-size replies and a k-way union: fan-out, merge and bulk decode dominate; slowest leaf sets p99",
		build:   buildSetAlgebra,
		probe:   probeSetAlgebra,
		explain: explainSetAlgebra,
	},
	{
		name:    "hdsearch_lsh",
		why:     "compute-bound: LSH lookup and distance kernels dominate, so rpc/core changes predict no movement here",
		build:   buildHDSearch,
		probe:   probeHDSearch,
		explain: explainHDSearch,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// tracing carries one span recorder per tier, so a span's Service label
// says which tier recorded it even where both hops share a method name
// (Router's get travels as "router.get" on both).
type tracing struct {
	front, mid, leaf *trace.Recorder
}

// spanCap bounds each recorder: a traced window samples one request in four
// and records up to four program spans for it.
const spanCap = 1 << 21

func newTracing() *tracing {
	return &tracing{
		front: trace.NewRecorder("frontend", spanCap),
		mid:   trace.NewRecorder("midtier", spanCap),
		leaf:  trace.NewRecorder("leaf", spanCap),
	}
}

func (t *tracing) midOpts() musuite.MidTierOptions {
	if t == nil {
		return musuite.MidTierOptions{}
	}
	return musuite.MidTierOptions{Spans: t.mid}
}

func (t *tracing) leafOpts() musuite.LeafOptions {
	if t == nil {
		return musuite.LeafOptions{}
	}
	return musuite.LeafOptions{Spans: t.leaf}
}

func (t *tracing) clientOpts() *musuite.RPCClientOptions {
	if t == nil {
		return nil
	}
	return &musuite.RPCClientOptions{Spans: t.front}
}

// deployment is one running service with its request stream.
type deployment struct {
	// setup is how long build took: input generation, index build, cluster
	// start and warm-up.
	setup time.Duration
	// ops is the length of the request stream; request i%ops is issued as
	// the stream cycles.
	ops int
	// request returns the encoded form of stream entry i: the bytes that
	// travel to the mid-tier.
	request func(i int) (method string, payload []byte)
	// issue sends stream entry i and waits for the reply, reporting whether
	// it arrived and was right.  A sampled sc traces the request.
	issue func(i int, sc trace.SpanContext) bool
	// verify checks answers against the benchmark's own reference before
	// the window.  recall is the share of the reference answers' items
	// that the service returned.
	verify func() (attempted, failed int, recall float64)
	// midAddr is the mid-tier's address, leafAddrs every leaf replica's.
	midAddr   string
	leafAddrs []string
	// data keeps the generated inputs for the layer probes.
	data  any
	close func()
}

// leafAddrsOf lists every leaf replica address of a mid-tier's topology.
func leafAddrsOf(view musuite.ClusterView) []string {
	var out []string
	for _, g := range view.Groups {
		out = append(out, g.Addrs...)
	}
	return out
}

// warmUp issues n stream entries per client before the window, so that
// connections, pools and the runtime's heap reach steady state.  It counts
// requests, not time, because it is part of setup_s.
func (d *deployment) warmUp(perClient int) error {
	errs := make(chan error, numClients)
	for c := 0; c < numClients; c++ {
		go func(c int) {
			for s := 0; s < perClient; s++ {
				if !d.issue(c+numClients*s, trace.SpanContext{}) {
					errs <- fmt.Errorf("warm-up request %d failed", c+numClients*s)
					return
				}
			}
			errs <- nil
		}(c)
	}
	var first error
	for c := 0; c < numClients; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// streamDigest hashes the encoded request stream: two runs with one seed
// must agree on it.
func (d *deployment) streamDigest() uint64 {
	h := fnv.New64a()
	for i := 0; i < d.ops; i++ {
		method, payload := d.request(i)
		h.Write([]byte(method))
		h.Write(payload)
	}
	return h.Sum64()
}

// zipfIndexes draws n indexes in [0, population) with Zipf(1.1) popularity.
func zipfIndexes(rng *rand.Rand, population, n int) []int {
	z := rand.NewZipf(rng, 1.1, 1, uint64(population-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// --- Router ---

const (
	routerLeaves   = 4
	routerReplicas = 2
	routerKeys     = 2000
	routerValue    = 64
	routerSetValue = 1024
	routerVerified = 256
)

type routerData struct {
	keys   []string
	values [][]byte // warmed value of each key
	opKey  []int    // stream: key index per op
	opVal  [][]byte // stream: value per op (set workload only)
	set    bool
}

// buildRouter deploys Router with 4 leaves × 2 replicas, warmed with 2 000
// 64-byte values; the stream is 100 % get, or 100 % set of 1 KiB values.
// The benchmark draws its own op stream: dataset.KVTrace cannot produce a
// pure-read or pure-write mix (GetFraction ≤ 0 means 0.5).
func buildRouter(set bool) func(int64, bool, *tracing) (*deployment, error) {
	return func(seed int64, small bool, tr *tracing) (*deployment, error) {
		start := time.Now()
		keys, streamOps, warm := routerKeys, 1<<14, 2500
		if set {
			streamOps, warm = 1<<12, 1500
		}
		if small {
			keys, streamOps, warm = 200, 1<<9, 100
		}
		rng := rand.New(rand.NewSource(seed))
		rd := &routerData{set: set, keys: make([]string, keys), values: make([][]byte, keys)}
		for i := range rd.keys {
			rd.keys[i] = fmt.Sprintf("key:%08d", i)
			rd.values[i] = make([]byte, routerValue)
			rng.Read(rd.values[i])
		}
		rd.opKey = zipfIndexes(rng, keys, streamOps)
		if set {
			rd.opVal = make([][]byte, streamOps)
			for i := range rd.opVal {
				rd.opVal[i] = make([]byte, routerSetValue)
				rng.Read(rd.opVal[i])
			}
		}

		cl, err := musuite.StartRouterCluster(musuite.RouterClusterConfig{
			Leaves: routerLeaves, Replicas: routerReplicas,
			MidTier: tr.midOpts(), Leaf: tr.leafOpts(),
		})
		if err != nil {
			return nil, err
		}
		client, err := musuite.DialRouter(cl.Addr, tr.clientOpts())
		if err != nil {
			cl.Close()
			return nil, err
		}
		d := &deployment{
			ops:       streamOps,
			midAddr:   cl.Addr,
			leafAddrs: leafAddrsOf(cl.MidTier().Topology().View()),
			data:      rd,
			close:     func() { client.Close(); cl.Close() },
		}
		d.request = func(i int) (string, []byte) {
			i %= streamOps
			if set {
				return router.MethodSet, router.EncodeKeyValue(rd.keys[rd.opKey[i]], rd.opVal[i])
			}
			return router.MethodGet, router.EncodeKey(rd.keys[rd.opKey[i]])
		}
		d.issue = func(i int, sc trace.SpanContext) bool {
			i %= streamOps
			k := rd.opKey[i]
			if set {
				if sc.Sampled() {
					call := client.GoSetSpan(rd.keys[k], rd.opVal[i], sc, nil)
					<-call.Done
					ok := call.Err == nil
					call.Release()
					return ok
				}
				return client.Set(rd.keys[k], rd.opVal[i]) == nil
			}
			if sc.Sampled() {
				call := client.GoGetSpan(rd.keys[k], sc, nil)
				<-call.Done
				found, value, err := router.DecodeGetResponse(call.Reply)
				ok := call.Err == nil && err == nil && found && bytes.Equal(value, rd.values[k])
				call.Release()
				return ok
			}
			value, found, err := client.Get(rd.keys[k])
			return err == nil && found && bytes.Equal(value, rd.values[k])
		}
		for i, key := range rd.keys {
			if err := client.Set(key, rd.values[i]); err != nil {
				d.close()
				return nil, fmt.Errorf("router warm set: %w", err)
			}
		}
		if set {
			d.verify = func() (int, int, float64) { return verifyRouterSet(cl, client, rd) }
		} else {
			d.verify = func() (int, int, float64) { return verifyRouterGet(client, rd) }
		}
		if err := d.warmUp(warm); err != nil {
			d.close()
			return nil, err
		}
		d.setup = time.Since(start)
		return d, nil
	}
}

// verifyRouterGet reads every key back and compares it with the warmed value.
func verifyRouterGet(client *musuite.RouterClient, rd *routerData) (attempted, failed int, recall float64) {
	for i, key := range rd.keys {
		attempted++
		value, found, err := client.Get(key)
		if err != nil || !found || !bytes.Equal(value, rd.values[i]) {
			failed++
		}
	}
	return attempted, failed, 1 - float64(failed)/float64(attempted)
}

// verifyRouterSet writes the first 256 stream entries in order and reads the
// last value of each key back from both replicas: the leaves holding the key
// must be the two the routing function names, and two consecutive gets —
// which the mid-tier rotates across the replicas — must both return it.  It
// then restores the warmed values, so that the window starts from the same
// state on every deployment.
func verifyRouterSet(cl *musuite.RouterCluster, client *musuite.RouterClient, rd *routerData) (attempted, failed int, recall float64) {
	n := min(routerVerified, len(rd.opKey))
	last := make(map[int][]byte)
	for i := 0; i < n; i++ {
		attempted++
		if client.Set(rd.keys[rd.opKey[i]], rd.opVal[i]) != nil {
			failed++
		}
		last[rd.opKey[i]] = rd.opVal[i]
	}
	keys := make([]int, 0, len(last))
	for k := range last {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		attempted++
		want := router.Replicas(rd.keys[k], routerLeaves, routerReplicas)
		sort.Ints(want)
		ok := slices.Equal(cl.LeafHolding(rd.keys[k]), want)
		for r := 0; r < routerReplicas; r++ {
			value, found, err := client.Get(rd.keys[k])
			ok = ok && err == nil && found && bytes.Equal(value, last[k])
		}
		if !ok {
			failed++
		}
		if client.Set(rd.keys[k], rd.values[k]) != nil {
			failed++
		}
	}
	return attempted, failed, 1 - float64(failed)/float64(attempted)
}

// --- SetAlgebra ---

const (
	setShards    = 4
	setStopTerms = 10
	setVerified  = 256
)

type setData struct {
	corpus  *musuite.DocCorpus
	queries [][]int
	want    [][]uint32 // reference answers of the first setVerified queries
}

// buildSetAlgebra deploys SetAlgebra over 20 000 documents (vocabulary
// 3 000, mean length 60, 10 stop terms) on 4 shards; the stream is 10 000
// queries of at most 10 terms.
func buildSetAlgebra(seed int64, small bool, tr *tracing) (*deployment, error) {
	start := time.Now()
	docs, queries, warm := 20000, 10000, 1000
	if small {
		docs, queries, warm = 2000, 1000, 100
	}
	sd := &setData{}
	sd.corpus = musuite.NewDocCorpus(musuite.DocCorpusConfig{Docs: docs, VocabSize: 3000, MeanDocLen: 60, Seed: seed})
	sd.queries = sd.corpus.Queries(queries, 10, seed+1)
	cl, err := musuite.StartSetAlgebraCluster(musuite.SetAlgebraClusterConfig{
		Corpus: sd.corpus, Shards: setShards, StopTerms: setStopTerms,
		MidTier: tr.midOpts(), Leaf: tr.leafOpts(),
	})
	if err != nil {
		return nil, err
	}
	client, err := musuite.DialSetAlgebra(cl.Addr, tr.clientOpts())
	if err != nil {
		cl.Close()
		return nil, err
	}
	d := &deployment{
		ops:       queries,
		midAddr:   cl.Addr,
		leafAddrs: leafAddrsOf(cl.MidTier().Topology().View()),
		data:      sd,
		close:     func() { client.Close(); cl.Close() },
	}
	d.request = func(i int) (string, []byte) {
		return setalgebra.MethodSearch, setalgebra.EncodeTerms(sd.queries[i%queries])
	}
	d.issue = func(i int, sc trace.SpanContext) bool {
		i %= queries
		var ids []uint32
		var err error
		if sc.Sampled() {
			call := client.GoSpan(sd.queries[i], sc, nil)
			<-call.Done
			if err = call.Err; err == nil {
				ids, err = setalgebra.DecodeDocIDs(call.Reply)
			}
			call.Release()
		} else {
			ids, err = client.Search(sd.queries[i])
		}
		if err != nil {
			return false
		}
		// Inside the window only the verified queries have a reference
		// answer at hand; the rest must at least be well-formed.
		if i < len(sd.want) {
			return slices.Equal(ids, sd.want[i])
		}
		return slices.IsSorted(ids)
	}
	d.verify = func() (int, int, float64) {
		want := referenceIntersections(sd.corpus, sd.queries[:min(setVerified, queries)])
		var attempted, failed int
		var hit, total float64
		for i, w := range want {
			attempted++
			got, err := client.Search(sd.queries[i])
			if err != nil || !slices.Equal(got, w) {
				failed++
			}
			total += float64(len(w))
			hit += float64(overlap(got, w))
		}
		sd.want = want
		if total == 0 {
			return attempted, failed, 1
		}
		return attempted, failed, hit / total
	}
	if err := d.warmUp(warm); err != nil {
		d.close()
		return nil, err
	}
	d.setup = time.Since(start)
	return d, nil
}

// overlap counts the items two ascending lists share.
func overlap(a, b []uint32) int {
	n := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n, i, j = n+1, i+1, j+1
		}
	}
	return n
}

// referenceIntersections answers queries over the unsharded corpus with the
// benchmark's own code: a document matches when it holds every query term
// that its shard does not stop-list (a shard stop-lists its ten most
// frequent terms; a query left without terms matches nothing there).
func referenceIntersections(c *musuite.DocCorpus, queries [][]int) [][]uint32 {
	stop := make([]map[int]bool, setShards)
	for s := range stop {
		freq := make(map[int]int)
		for id := s; id < len(c.Docs); id += setShards {
			for _, w := range c.Docs[id] {
				freq[w]++
			}
		}
		terms := make([]int, 0, len(freq))
		for t := range freq {
			terms = append(terms, t)
		}
		sort.Slice(terms, func(i, j int) bool {
			if freq[terms[i]] != freq[terms[j]] {
				return freq[terms[i]] > freq[terms[j]]
			}
			return terms[i] < terms[j]
		})
		stop[s] = make(map[int]bool)
		for _, t := range terms[:min(setStopTerms, len(terms))] {
			stop[s][t] = true
		}
	}
	holds := make(map[int][]uint32) // query term → ascending documents holding it
	for _, q := range queries {
		for _, t := range q {
			holds[t] = []uint32{}
		}
	}
	for id, words := range c.Docs {
		for _, w := range words {
			if h, ok := holds[w]; ok && (len(h) == 0 || h[len(h)-1] != uint32(id)) {
				holds[w] = append(h, uint32(id))
			}
		}
	}
	out := make([][]uint32, len(queries))
	for qi, q := range queries {
		for s := 0; s < setShards; s++ {
			var active []int
			for _, t := range q {
				if !stop[s][t] {
					active = append(active, t)
				}
			}
			if len(active) == 0 {
				continue
			}
			// Walk the rarest term's documents and look the others up.
			sort.Slice(active, func(i, j int) bool { return len(holds[active[i]]) < len(holds[active[j]]) })
			for _, id := range holds[active[0]] {
				match := int(id)%setShards == s
				for _, t := range active[1:] {
					if !match {
						break
					}
					_, match = slices.BinarySearch(holds[t], id)
				}
				if match {
					out[qi] = append(out[qi], id)
				}
			}
		}
		slices.Sort(out[qi])
	}
	return out
}

// --- HDSearch ---

const (
	hdShards   = 4
	hdK        = 5
	hdVerified = 128
	// hdCorpusSeed draws the corpus and the LSH hyperplanes.  It is fixed:
	// how ten random cluster centres fall among random hyperplanes sets the
	// bucket sizes, and from one draw to the next the candidates per query —
	// and with them every cost — move by more than the bounds.  The run's
	// seed draws the queries.
	hdCorpusSeed = 20180930
)

type hdData struct {
	corpus  *musuite.ImageCorpus
	queries []musuite.Vector
	want    [][]musuite.HDSearchNeighbor // service answers of the verified queries
}

// buildHDSearch deploys HDSearch with the paper's LSH index over a
// 100 000 × 64-d corpus in 10 clusters on 4 shards; the stream is 512
// perturbed corpus points, k = 5.
func buildHDSearch(seed int64, small bool, tr *tracing) (*deployment, error) {
	start := time.Now()
	n, queries, warm := 100000, 512, 400
	if small {
		n, queries, warm = 4000, 64, 32
	}
	hd := &hdData{}
	hd.corpus = musuite.NewImageCorpus(musuite.ImageCorpusConfig{N: n, Dim: 64, Clusters: 10, Seed: hdCorpusSeed})
	hd.queries = hd.corpus.Queries(queries, seed)
	cfg := musuite.HDSearchClusterConfig{
		Corpus: hd.corpus, Shards: hdShards, Kind: musuite.HDSearchIndexLSH,
		MidTier: tr.midOpts(), Leaf: tr.leafOpts(),
	}
	cfg.Index.Seed = hdCorpusSeed
	cl, err := musuite.StartHDSearchCluster(cfg)
	if err != nil {
		return nil, err
	}
	client, err := musuite.DialHDSearch(cl.Addr, tr.clientOpts())
	if err != nil {
		cl.Close()
		return nil, err
	}
	d := &deployment{
		ops:       queries,
		midAddr:   cl.Addr,
		leafAddrs: leafAddrsOf(cl.MidTier().Topology().View()),
		data:      hd,
		close:     func() { client.Close(); cl.Close() },
	}
	d.request = func(i int) (string, []byte) {
		return hdsearch.MethodSearch, hdsearch.EncodeSearchRequest(hd.queries[i%queries], hdK)
	}
	d.issue = func(i int, sc trace.SpanContext) bool {
		i %= queries
		var ns []musuite.HDSearchNeighbor
		var err error
		if sc.Sampled() {
			call := client.GoSpan(hd.queries[i], hdK, sc, nil)
			<-call.Done
			if err = call.Err; err == nil {
				ns, err = hdsearch.DecodeNeighbors(call.Reply)
			}
			call.Release()
		} else {
			ns, err = client.Search(hd.queries[i], hdK)
		}
		if err != nil {
			return false
		}
		// The index is deterministic: a verified query must keep returning
		// the answer that was checked against brute force.
		if i < len(hd.want) {
			return slices.Equal(ns, hd.want[i])
		}
		return len(ns) <= hdK && slices.IsSortedFunc(ns, byDistance)
	}
	d.verify = func() (int, int, float64) { return verifyHDSearch(client, hd) }
	if err := d.warmUp(warm); err != nil {
		d.close()
		return nil, err
	}
	d.setup = time.Since(start)
	return d, nil
}

func byDistance(a, b musuite.HDSearchNeighbor) int {
	switch {
	case a.Distance < b.Distance:
		return -1
	case a.Distance > b.Distance:
		return 1
	}
	return 0
}

// verifyHDSearch checks the first 128 queries: the returned distances must
// ascend and equal the benchmark's own squared Euclidean distance to the
// returned points, and recall@5 is taken against the benchmark's brute-force
// scan of the whole corpus.  LSH is approximate, so a missed neighbour
// lowers recall but is not a failure; a wrong distance is.
func verifyHDSearch(client *musuite.HDSearchClient, hd *hdData) (attempted, failed int, recall float64) {
	n := min(hdVerified, len(hd.queries))
	truth := bruteForceTopK(hd.corpus.Vectors, hd.queries[:n], hdK)
	hd.want = make([][]musuite.HDSearchNeighbor, n)
	var hit, total int
	for i := 0; i < n; i++ {
		attempted++
		ns, err := client.Search(hd.queries[i], hdK)
		ok := err == nil && len(ns) <= hdK && slices.IsSortedFunc(ns, byDistance)
		for _, nb := range ns {
			if !ok || int(nb.PointID) >= len(hd.corpus.Vectors) {
				ok = false
				break
			}
			ref := squaredDistance(hd.queries[i], hd.corpus.Vectors[nb.PointID])
			// The leaves compute ‖q‖²+‖p‖²−2q·p in float32, which rounds
			// differently from the direct sum.
			if math.Abs(float64(nb.Distance)-ref) > 1e-3*math.Max(1, ref) {
				ok = false
			}
			if slices.Contains(truth[i], nb.PointID) {
				hit++
			}
		}
		if !ok {
			failed++
		}
		total += len(truth[i])
		hd.want[i] = ns
	}
	return attempted, failed, float64(hit) / float64(total)
}

func squaredDistance(a, b musuite.Vector) float64 {
	var sum float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		sum += d * d
	}
	return sum
}

// bruteForceTopK scans every corpus vector for every query, one goroutine
// per client slot.
func bruteForceTopK(corpus []musuite.Vector, queries []musuite.Vector, k int) [][]uint32 {
	out := make([][]uint32, len(queries))
	done := make(chan struct{}, numClients)
	for w := 0; w < numClients; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			type cand struct {
				id uint32
				d  float32
			}
			for qi := w; qi < len(queries); qi += numClients {
				best := make([]cand, 0, k+1)
				q := queries[qi]
				for id, v := range corpus {
					var sum float32
					for j := range q {
						diff := q[j] - v[j]
						sum += diff * diff
					}
					if len(best) == k && sum >= best[k-1].d {
						continue
					}
					pos := sort.Search(len(best), func(i int) bool { return best[i].d > sum })
					best = slices.Insert(best, pos, cand{uint32(id), sum})
					if len(best) > k {
						best = best[:k]
					}
				}
				for _, b := range best {
					out[qi] = append(out[qi], b.id)
				}
			}
		}(w)
	}
	for w := 0; w < numClients; w++ {
		<-done
	}
	return out
}
