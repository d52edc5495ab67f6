package ann

import (
	"fmt"
	"math"

	"musuite/internal/kernel"
)

// Kind selects the index family a build constructs.
type Kind uint8

// The available index families.
const (
	// KindIVF is the inverted-file family: coarse-quantizer candidate
	// generation plus the Config.Quant scoring store.
	KindIVF Kind = iota
	// KindHNSW is the hierarchical navigable-small-world graph: sub-linear
	// beam-search traversal, exact float32 scoring throughout.
	KindHNSW
)

func (k Kind) String() string {
	switch k {
	case KindIVF:
		return "ivf"
	case KindHNSW:
		return "hnsw"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Searcher is the leaf-resident index contract the hdsearch leafann path
// serves behind: a built, read-only index answering bounded-candidate
// searches on the kernel engine.  *Index and *HNSW implement it.  The knob
// argument is the family's breadth control — nprobe for the IVF kinds,
// efSearch for HNSW — carried in the same wire slot so the admin retuning
// surface is shared.  rerank bounds the exact re-rank depth where the
// family scores approximately (IVF compressed stores); HNSW accepts and
// ignores it, since its traversal is already exact.
type Searcher interface {
	Search(eng *kernel.Engine, q []float32, k, knob, rerank int, dst []kernel.Neighbor) ([]kernel.Neighbor, error)
	Len() int
	Dim() int
	// CompressedBytes reports the resident compressed candidate store size
	// (0 where scoring is exact-only).
	CompressedBytes() int
	// Fingerprint folds the built structure into one hash, so
	// reproducibility tests can assert two builds are identical without
	// exporting internals.
	Fingerprint() uint64
}

var (
	_ Searcher = (*Index)(nil)
	_ Searcher = (*HNSW)(nil)
)

// BuildKind dispatches a build to the configured index family.
func BuildKind(store *kernel.Store, cfg Config) (Searcher, error) {
	switch cfg.Kind {
	case KindIVF:
		return Build(store, cfg)
	case KindHNSW:
		return BuildHNSW(store, cfg)
	}
	return nil, fmt.Errorf("ann: unknown index kind %v", cfg.Kind)
}

// --- structure fingerprints ---

// fnvNew/fnvInt are an inline FNV-1a over 64-bit words — enough to detect
// any structural divergence between two builds of the same spec.
func fnvNew() uint64 { return 0xcbf29ce484222325 }

func fnvInt(f, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		f ^= v & 0xff
		f *= 0x100000001b3
		v >>= 8
	}
	return f
}

func fnvFloat(f uint64, v float32) uint64 {
	return fnvInt(f, uint64(math.Float32bits(v)))
}

func (st *Int8Store) fingerprint(f uint64) uint64 {
	for _, c := range st.codes {
		f = fnvInt(f, uint64(uint8(c)))
	}
	for _, s := range st.scale {
		f = fnvFloat(f, s)
	}
	return f
}

func (st *PQStore) fingerprint(f uint64) uint64 {
	f = fnvInt(f, uint64(st.m))
	f = fnvInt(f, uint64(st.kc))
	for _, v := range st.codebook {
		f = fnvFloat(f, v)
	}
	for _, c := range st.codes {
		f = fnvInt(f, uint64(c))
	}
	return f
}

// Fingerprint folds the IVF structure — centroids, inverted lists, and the
// compressed store — into one FNV-1a hash.
func (x *Index) Fingerprint() uint64 {
	f := fnvNew()
	f = fnvInt(f, uint64(x.quant))
	if x.cents != nil {
		f = fnvInt(f, uint64(x.cents.Len()))
		for c := 0; c < x.cents.Len(); c++ {
			for _, v := range x.cents.Row(c) {
				f = fnvFloat(f, v)
			}
		}
	}
	f = fnvInt(f, uint64(len(x.lists)))
	for _, list := range x.lists {
		f = fnvInt(f, uint64(len(list)))
		for _, id := range list {
			f = fnvInt(f, uint64(id))
		}
	}
	switch x.quant {
	case QuantInt8:
		f = x.i8.fingerprint(f)
	case QuantPQ:
		f = x.pq.fingerprint(f)
	}
	return f
}
