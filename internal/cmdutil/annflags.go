// Package cmdutil holds the flag groups musuite and musuite-bench share, so
// both binaries expose one consistent surface: ANNFlags selects and tunes
// HDSearch's candidate index, TopoFlags names a topology spec and overrides
// its run shape.
package cmdutil

import (
	"flag"

	"musuite/internal/ann"
	"musuite/internal/services/hdsearch"
)

// ANNFlags is the candidate-index flag group `musuite serve hdsearch` and
// musuite-bench share: the kind selector plus the IVF
// (-nlist/-nprobe/-rerank) and HNSW (-m/-ef-construction/-ef-search) tuning
// knobs.
type ANNFlags struct {
	kind   *string
	nlist  *int
	nprobe *int
	rerank *int
	m      *int
	efCon  *int
	efSrch *int
}

// RegisterANNFlags registers the index flag group on fs; call before Parse.
func RegisterANNFlags(fs *flag.FlagSet) *ANNFlags {
	return &ANNFlags{
		kind: fs.String("index", "lsh",
			"candidate index: lsh | kdtree | kmeans | ivf | ivfsq | ivfpq | hnsw (leaf-resident kinds build per-shard indexes)"),
		nlist: fs.Int("nlist", 0,
			"ivf*: coarse clusters per leaf shard (0 = √shard-size)"),
		nprobe: fs.Int("nprobe", 0,
			"ivf*: clusters probed per query (0 = leaf default)"),
		rerank: fs.Int("rerank", 0,
			"ivfsq/ivfpq: exact re-rank depth over compressed candidates (0 = leaf default)"),
		m: fs.Int("m", 0,
			"hnsw: per-node degree bound on upper layers, base layer allows 2m (0 = default 16)"),
		efCon: fs.Int("ef-construction", 0,
			"hnsw: build-time beam width (0 = default 200)"),
		efSrch: fs.Int("ef-search", 0,
			"hnsw: query-time beam width (0 = leaf default 64)"),
	}
}

// Kind reports the selected index kind.
func (f *ANNFlags) Kind() hdsearch.IndexKind { return hdsearch.IndexKind(*f.kind) }

// Config assembles the ann build config the flags describe.  The family
// selector and quantization come from the kind via LeafANNConfig at the
// build site; this carries only the tuning knobs.
func (f *ANNFlags) Config() ann.Config {
	return ann.Config{
		NList:          *f.nlist,
		NProbe:         *f.nprobe,
		Rerank:         *f.rerank,
		M:              *f.m,
		EFConstruction: *f.efCon,
		EFSearch:       *f.efSrch,
	}
}
