package bench

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"musuite/internal/ann"
	"musuite/internal/dataset"
	"musuite/internal/kernel"
	"musuite/internal/loadgen"
	"musuite/internal/rpc"
	"musuite/internal/services/hdsearch"
)

// IndexRow compares one candidate-index configuration on HDSearch: recall
// against brute force and end-to-end latency under open-loop load.  The
// paper's related work frames the LSH / kd-tree / k-means trio; the ivf*
// and hnsw rows extend the comparison to the leaf-resident ANN indexes,
// swept over their breadth (nprobe / efSearch) and rerank (exact
// re-scoring depth) knobs.
type IndexRow struct {
	Kind hdsearch.IndexKind
	// Knob is the search-breadth setting for this row — nprobe for the
	// ivf* kinds, efSearch for hnsw, 0 for the candidate-generator kinds
	// (which have no such knob).
	Knob int
	// Rerank is the exact re-rank depth (compressed ivf kinds only).
	Rerank int
	// Recall1 and Recall10 score the returned IDs against brute-force
	// ground truth at k=1 and k=10 — compression tradeoffs invisible at
	// k=1 show up at k=10.
	Recall1, Recall10 float64
	Load              float64
	P50               time.Duration
	P99               time.Duration
	Build             time.Duration
}

// Breadth/rerank sweep points for the ANN kinds.  The rerank sweep applies
// only to the compressed ivf kinds (plain IVF and hnsw score exactly;
// rerank is moot).  hnsw sweeps its own efSearch ladder — wider than the
// nprobe one because the beam width is the graph's whole recall knob.
var (
	nprobeSweep   = []int{1, 4, 8}
	efSearchSweep = []int{16, 64, 128}
	rerankSweep   = []int{10, 200}
	sweepRerank   = 100 // rerank held here while nprobe sweeps
	sweepNProbe   = 8   // nprobe held here while rerank sweeps
)

// IndexComparison deploys HDSearch once per index kind on an identical
// corpus, measures recall@1/@10 over a query sample, then measures
// open-loop latency at the given load.  ANN kinds contribute one row per
// sweep point, retuned on the live cluster (the index builds once).
func IndexComparison(s Scale, load float64) ([]IndexRow, error) {
	corpus := dataset.NewImageCorpus(dataset.ImageCorpusConfig{
		N: s.HDCorpus, Dim: s.HDDim, Clusters: s.HDClusters, Seed: s.Seed,
	})
	queries := corpus.Queries(s.HDQueries, s.Seed+100)
	sample := s.RecallSample
	if sample <= 0 {
		sample = 150
	}
	recallSample := queries
	if len(recallSample) > sample {
		recallSample = recallSample[:sample]
	}
	truth := make([][]kernel.Neighbor, len(recallSample))
	for i, q := range recallSample {
		truth[i] = kernel.BruteForce(q, corpus.Vectors, 10)
	}

	var out []IndexRow
	for _, kind := range hdsearch.IndexKinds {
		buildStart := time.Now()
		cl, err := hdsearch.StartCluster(hdsearch.ClusterConfig{
			Corpus:  corpus,
			Shards:  s.Shards,
			Kind:    kind,
			MidTier: midTierOptions(s, FrameworkMode{}, nil),
			Leaf:    leafOptions(s, FrameworkMode{}),
		})
		if err != nil {
			return nil, fmt.Errorf("indexcmp %s: %w", kind, err)
		}
		build := time.Since(buildStart)
		client, err := hdsearch.DialClient(cl.Addr, nil)
		if err != nil {
			cl.Close()
			return nil, err
		}

		measure := func(knob, rerank int) error {
			if rt := cl.ANNRouter(); rt != nil {
				rt.SetNProbe(knob) // same slot carries efSearch for hnsw
				rt.SetRerank(rerank)
			}
			r1, r10, err := recallAt(client, recallSample, truth)
			if err != nil {
				return err
			}
			var next atomic.Uint64
			open := loadgen.RunOpenLoop(func(done chan *rpc.Call) *rpc.Call {
				q := queries[next.Add(1)%uint64(len(queries))]
				return client.Go(q, 5, done)
			}, loadgen.OpenLoopConfig{QPS: load, Duration: s.Window, Seed: s.Seed + 43})
			out = append(out, IndexRow{
				Kind: kind, Knob: knob, Rerank: rerank,
				Recall1: r1, Recall10: r10,
				Load: load, P50: open.Latency.Median, P99: open.Latency.P99,
				Build: build,
			})
			return nil
		}

		var sweepErr error
		switch {
		case kind == hdsearch.IndexHNSW:
			// The graph kind sweeps its beam width; no rerank stage.
			for _, ef := range efSearchSweep {
				if sweepErr = measure(ef, 0); sweepErr != nil {
					break
				}
			}
		case !hdsearch.IsLeafANN(kind):
			sweepErr = measure(0, 0)
		default:
			quant, _ := hdsearch.ANNQuant(kind)
			rerank := 0
			if quant != ann.QuantNone {
				rerank = sweepRerank
			}
			for _, np := range nprobeSweep {
				if sweepErr = measure(np, rerank); sweepErr != nil {
					break
				}
			}
			if sweepErr == nil && quant != ann.QuantNone {
				for _, rr := range rerankSweep {
					if sweepErr = measure(sweepNProbe, rr); sweepErr != nil {
						break
					}
				}
			}
		}
		client.Close()
		cl.Close()
		if sweepErr != nil {
			return nil, fmt.Errorf("indexcmp %s: %w", kind, sweepErr)
		}
	}
	return out, nil
}

// recallAt scores one configuration's recall@1 and recall@10 against the
// precomputed brute-force ground truth.
func recallAt(client *hdsearch.Client, sample [][]float32, truth [][]kernel.Neighbor) (r1, r10 float64, err error) {
	hits1, hits10, want10 := 0, 0, 0
	for i, q := range sample {
		got, err := client.Search(q, 10)
		if err != nil {
			return 0, 0, err
		}
		if len(got) > 0 && len(truth[i]) > 0 && got[0].PointID == truth[i][0].ID {
			hits1++
		}
		in := make(map[uint32]bool, len(got))
		for _, n := range got {
			in[n.PointID] = true
		}
		for _, n := range truth[i] {
			want10++
			if in[n.ID] {
				hits10++
			}
		}
	}
	return float64(hits1) / float64(len(sample)), float64(hits10) / float64(want10), nil
}

// RecallFloorViolations checks each index kind's best recall@10 across its
// sweep rows against a floor, returning one message per kind below it.  A
// kind passes if any swept configuration reaches the floor — the gate asks
// "can this index hit the recall target at all", not "does every point on
// the latency/recall frontier".  Coverage derives from the registered
// hdsearch.IndexKinds: a registered kind with no sweep rows at all is
// itself a violation, so a newly added kind cannot silently skip the gate.
func RecallFloorViolations(rows []IndexRow, floor float64) []string {
	best := make(map[hdsearch.IndexKind]float64)
	for _, r := range rows {
		if r.Recall10 > best[r.Kind] {
			best[r.Kind] = r.Recall10
		}
	}
	var out []string
	for _, kind := range hdsearch.IndexKinds {
		r10, ok := best[kind]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("%s: registered kind produced no sweep rows", kind))
		case r10 < floor:
			out = append(out, fmt.Sprintf("%s: best recall@10 %.3f < floor %.3f", kind, r10, floor))
		}
	}
	return out
}

// RenderIndexComparison prints the comparison table.
func RenderIndexComparison(rows []IndexRow) string {
	var b strings.Builder
	b.WriteString("HDSearch candidate-index comparison (LSH / kd-tree / k-means / IVF / IVF+int8 / IVF+PQ / HNSW)\n")
	fmt.Fprintf(&b, "  %-8s %-7s %-7s %-9s %-10s %-12s %-12s %-12s\n",
		"index", "knob", "rerank", "recall@1", "recall@10", "p50", "p99", "build+deploy")
	knob := func(v int) string {
		if v == 0 {
			return "-"
		}
		return fmt.Sprintf("%d", v)
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-8s %-7s %-7s %-9.3f %-10.3f %-12v %-12v %-12v\n",
			r.Kind, knob(r.Knob), knob(r.Rerank), r.Recall1, r.Recall10,
			r.P50, r.P99, r.Build.Round(time.Millisecond))
	}
	return b.String()
}
