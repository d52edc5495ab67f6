package hdsearch

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"musuite/internal/core"
	"musuite/internal/dataset"
)

// TestParallelScanUnderTopologyChurn drives concurrent searches through the
// leaves while leaf groups are added and drained underneath the fan-out.
// Run under -race this checks the scan scratch pooling, the per-leaf counter
// tables and the topology snapshot publishes against each other;
// functionally every search must still return sorted, in-range results.
func TestParallelScanUnderTopologyChurn(t *testing.T) {
	corpus := dataset.NewImageCorpus(dataset.ImageCorpusConfig{
		N: 1200, Dim: 32, Clusters: 10, Noise: 0.12, Seed: 42,
	})
	cl, err := StartCluster(ClusterConfig{
		Corpus:  corpus,
		Shards:  4,
		MidTier: core.Options{Workers: 2, ResponseThreads: 2},
		Leaf:    core.LeafOptions{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	// A spare leaf (serving shard 0's data) to churn in and out.
	shards := ShardCorpus(corpus, 4)
	spare := NewLeaf(shards[0], &core.LeafOptions{Workers: 2})
	spareAddr, err := spare.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(spare.Close)

	stop := make(chan struct{})
	var churnErr error
	var wg sync.WaitGroup
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
}
