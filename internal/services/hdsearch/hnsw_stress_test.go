package hdsearch

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"musuite/internal/ann"
	"musuite/internal/core"
	"musuite/internal/dataset"
)

// TestHNSWSearchUnderTopologyChurn is the graph-index variant of the scan
// churn stress: an hnsw-kind cluster serves concurrent searches while (a)
// leaf groups are added and drained underneath the fan-out and (b) a
// background goroutine repeatedly runs fresh parallel HNSW builds over the
// same shard data — the warm-handoff picture, where a replacement leaf
// builds its graph while the drained one keeps serving read-only searches.
// Run under -race this checks the round-synchronized build (chunk-claiming
// ParallelFor, per-node spinlocked pending lists) against the lock-free
// search path;
// functionally every search must still return sorted, in-range results and
// every rebuild must reproduce the serving index's fingerprint.
func TestHNSWSearchUnderTopologyChurn(t *testing.T) {
	corpus := dataset.NewImageCorpus(dataset.ImageCorpusConfig{
		N: 1200, Dim: 32, Clusters: 10, Noise: 0.12, Seed: 42,
	})
	annCfg := ann.Config{Seed: 7}
	cl, err := StartCluster(ClusterConfig{
		Corpus:  corpus,
		Shards:  4,
		Kind:    IndexHNSW,
		ANN:     annCfg,
		MidTier: core.Options{Workers: 2, ResponseThreads: 2},
		Leaf:    core.LeafOptions{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	// A spare leaf serving shard 0's data — with its own freshly built
	// graph — to churn in and out.
	shards := ShardCorpus(corpus, 4)
	buildCfg, _ := LeafANNConfig(IndexHNSW, annCfg)
	buildCfg.Seed = ShardSeed(annCfg.Seed, 0)
	spareIdx, err := ann.BuildKind(shards[0].Store, buildCfg)
	if err != nil {
		t.Fatal(err)
	}
	spareData := shards[0]
	spareData.ANN = spareIdx
	spare := NewLeaf(spareData, &core.LeafOptions{Workers: 2})
	spareAddr, err := spare.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(spare.Close)

	stop := make(chan struct{})
	var churnErr, buildErr error
	var wg sync.WaitGroup

	// Topology churn: the spare joins and drains in a loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			shard, err := cl.MidTier().AddLeafGroup([]string{spareAddr})
			if err != nil {
				churnErr = fmt.Errorf("add: %w", err)
				return
			}
			if err := cl.MidTier().DrainLeafGroup(shard, 10*time.Second); err != nil {
				churnErr = fmt.Errorf("drain: %w", err)
				return
			}
		}
	}()

	// Concurrent rebuilds: the parallel build machinery runs while the
	// cluster serves, and every rebuild must land on the same structure.
	wantFP := spareIdx.Fingerprint()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rebuilt, err := ann.BuildKind(shards[0].Store, buildCfg)
			if err != nil {
				buildErr = fmt.Errorf("rebuild: %w", err)
				return
			}
			if fp := rebuilt.Fingerprint(); fp != wantFP {
				buildErr = fmt.Errorf("rebuild fingerprint %x != %x", fp, wantFP)
				return
			}
		}
	}()

	queries := corpus.Queries(16, 7)
	const k = 5
	var clients sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		clients.Add(1)
		go func(g int) {
			defer clients.Done()
			client, err := DialClient(cl.Addr, nil)
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			for i := 0; i < 50; i++ {
				q := queries[(g+i)%len(queries)]
				got, err := client.Search(q, k)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d: %w", g, i, err)
					return
				}
				for j := range got {
					if int(got[j].PointID) >= len(corpus.Vectors) {
						errs <- fmt.Errorf("goroutine %d: bogus point %d", g, got[j].PointID)
						return
					}
					if j > 0 && got[j].Distance < got[j-1].Distance {
						errs <- fmt.Errorf("goroutine %d: unsorted results", g)
						return
					}
				}
			}
		}(g)
	}
	clients.Wait()
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if churnErr != nil {
		t.Fatal(churnErr)
	}
	if buildErr != nil {
		t.Fatal(buildErr)
	}
}
