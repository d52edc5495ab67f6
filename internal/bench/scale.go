// Package bench is the experiment harness: it deploys each μSuite service,
// drives it with the paper's load-testing methodology, and regenerates every
// table and figure of the evaluation (Figs. 9–19, Table II).  EXPERIMENTS.md
// records the paper-vs-measured comparison for each.
package bench

import (
	"runtime"
	"time"
)

// Scale sizes an experiment.  The paper runs 500K-image / 4.3M-document
// corpora on a 40-core cluster; Small is proportioned for a laptop-class
// single host so the suite's *shape* findings reproduce in seconds, and
// Paper approaches the publication's sizes for larger hosts.
type Scale struct {
	// HDSearch: corpus size, feature dimensionality, query count.
	HDCorpus, HDDim, HDClusters, HDQueries int

	// RecallSample is how many queries the index-comparison experiment
	// scores against brute-force ground truth (0 = 150).  Ground truth is
	// O(RecallSample × HDCorpus), so paper-scale runs pick this
	// deliberately rather than scoring every query.
	RecallSample int

	// Router: key population, value size, replicas, leaf count.
	RouterKeys, RouterValueSize, RouterReplicas, RouterLeaves int

	// Set Algebra: corpus and vocabulary size, stop-list size.
	Docs, Vocab, MeanDocLen, StopTerms int

	// Recommend: utility-matrix shape and density.
	Users, Items, Ratings int

	// Shards is the leaf fan-out for HDSearch/SetAlgebra/Recommend
	// (paper: 4).
	Shards int

	// LeafReplicas is the number of leaf processes per shard for
	// HDSearch/SetAlgebra/Recommend (default 1; Router replicates at the
	// data level via RouterReplicas instead).
	LeafReplicas int

	// Framework sizing.
	Workers, ResponseThreads, LeafWorkers, LeafConns int

	// Loads are the open-loop QPS levels for Figs. 10–19 (paper: 100,
	// 1 000, 10 000).
	Loads []float64

	// Window is each open-loop measurement window.
	Window time.Duration

	// SaturationWindow and MaxConcurrency drive the Fig. 9 probe.
	SaturationWindow time.Duration
	MaxConcurrency   int

	// Trials is the repetition count (paper: 5).
	Trials int

	// Seed namespaces all dataset generation.
	Seed int64
}

// Param names one dataset-sizing field of Scale.  A Service lists the
// Params that size it, and every surface that accepts those sizes is
// generated from that list with SmallScale as the only defaults: a topology
// spec's params allowlist and the sizing flags of `musuite serve|load` —
// one name resolving to one field, not a convention between binaries.
type Param struct {
	// Name is the spec param and flag name ("mean-doc-len").
	Name string
	// Help describes the size in a flag listing.
	Help string
	// Field addresses the Scale field the name sets.
	Field func(*Scale) *int
}

// SmallScale returns a laptop-sized configuration used by tests and the
// default bench run.
func SmallScale() Scale {
	return Scale{
		HDCorpus: 2000, HDDim: 32, HDClusters: 10, HDQueries: 512,
		RecallSample: 150,
		RouterKeys:   2000, RouterValueSize: 64, RouterReplicas: 2, RouterLeaves: 4,
		Docs: 1200, Vocab: 3000, MeanDocLen: 60, StopTerms: 10,
		Users: 60, Items: 80, Ratings: 2500,
		Shards:  4,
		Workers: 2, ResponseThreads: 2, LeafWorkers: 2, LeafConns: 2,
		Loads:            []float64{50, 200, 1000},
		Window:           2 * time.Second,
		SaturationWindow: time.Second,
		MaxConcurrency:   32,
		Trials:           1,
		Seed:             1,
	}
}

// PaperScale approximates the publication's setup (500K 2048-d vectors,
// 16-way Router with 3 replicas, 100/1K/10K QPS loads, five trials).  It
// needs a many-core host and substantial memory.
func PaperScale() Scale {
	return Scale{
		HDCorpus: 500000, HDDim: 2048, HDClusters: 64, HDQueries: 10000,
		RecallSample: 1000,
		RouterKeys:   100000, RouterValueSize: 128, RouterReplicas: 3, RouterLeaves: 16,
		Docs: 4300000, Vocab: 200000, MeanDocLen: 150, StopTerms: 100,
		Users: 1000, Items: 1700, Ratings: 10000,
		Shards:  4,
		Workers: 8, ResponseThreads: 4, LeafWorkers: 18, LeafConns: 4,
		Loads:            []float64{100, 1000, 10000},
		Window:           30 * time.Second,
		SaturationWindow: 5 * time.Second,
		MaxConcurrency:   512,
		Trials:           5,
		Seed:             1,
	}
}

// HostInfo captures the Table II analog for the machine actually running
// the experiments.
type HostInfo struct {
	GoVersion string
	OS, Arch  string
	CPUs      int
}

// Host reports the current machine.
func Host() HostInfo {
	return HostInfo{
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
	}
}
