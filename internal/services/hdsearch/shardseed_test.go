package hdsearch

import (
	"testing"

	"musuite/internal/ann"
)

// leafANNKinds are the leaf-resident kinds, the set whose shard builds must
// reproduce across deployment forms.
func leafANNKinds(t *testing.T) []IndexKind {
	t.Helper()
	var out []IndexKind
	for _, kind := range IndexKinds {
		if IsLeafANN(kind) {
			out = append(out, kind)
		}
	}
	if len(out) == 0 {
		t.Fatal("no leaf-resident kinds registered")
	}
	return out
}

// TestShardBuildsReproduceAcrossDeployments pins the seed-plumbing contract
// for every leaf-resident kind: one Assembly building every shard (what
// StartCluster does) and a fresh Assembly per leaf process building only its
// own shard (what `musuite serve -role leaf` does) must produce the index
// that ShardSeed + ann.BuildKind name, byte for byte, asserted through the
// structure fingerprints.  If the build site drifts from the ShardSeed
// convention — or a new kind's build reads nondeterministic state — the
// fingerprints split.
func TestShardBuildsReproduceAcrossDeployments(t *testing.T) {
	corpus := testCorpus(t)
	const shards = 4
	const baseSeed = int64(77)
	for _, kind := range leafANNKinds(t) {
		t.Run(string(kind), func(t *testing.T) {
			cfg := ClusterConfig{Corpus: corpus, Shards: shards, Kind: kind, ANN: ann.Config{NList: 10, Seed: baseSeed}}
			buildLeaf := func(a *Assembly, s int) {
				leaf, err := a.Leaf(s, nil)
				if err != nil {
					t.Fatal(err)
				}
				leaf.Close()
			}

			inProc := Prepare(cfg)
			for s := 0; s < shards; s++ {
				buildLeaf(inProc, s)
			}
			want, _ := LeafANNConfig(kind, cfg.ANN)
			for s := 0; s < shards; s++ {
				remote := Prepare(cfg)
				buildLeaf(remote, s)
				for other := range remote.shards {
					if built := remote.shards[other].ANN != nil; built != (other == s) {
						t.Fatalf("leaf process for shard %d: shard %d's index built = %v", s, other, built)
					}
				}
				shardCfg := want
				shardCfg.Seed = ShardSeed(baseSeed, s)
				ref, err := ann.BuildKind(ShardCorpus(corpus, shards)[s].Store, shardCfg)
				if err != nil {
					t.Fatal(err)
				}
				got, in := remote.shards[s].ANN.Fingerprint(), inProc.shards[s].ANN.Fingerprint()
				if got != in || got != ref.Fingerprint() {
					t.Fatalf("shard %d: per-process %x, in-process %x, ShardSeed reference %x", s, got, in, ref.Fingerprint())
				}
			}

			// Distinct shards must not share a fingerprint (the namespacing
			// is live, not a constant seed).
			if inProc.shards[0].ANN.Fingerprint() == inProc.shards[1].ANN.Fingerprint() {
				t.Fatal("shards 0 and 1 built identical indexes — per-shard seed namespacing lost")
			}
		})
	}
}
