package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"musuite/internal/rpc"
)

// Fan-out microbenchmarks over echo leaves, the measurements EXPERIMENTS.md
// cites for hedging and for cross-request batching.  Nothing gates on them;
// `go test -run '^$' -bench 'TailFanout|LeafBatching' ./internal/core`.

// benchmarkTailFanout drives a 3-shard × 2-replica fan-out in which one
// replica stalls 2 ms on every 8th request.  The Hedged variant duplicates
// calls stuck past the tracked p95 onto the shard's other replica; p99-ns is
// the metric to compare.
func benchmarkTailFanout(b *testing.B, tail TailPolicy) {
	groups := make([][]string, 3)
	for s := range groups {
		for r := 0; r < 2; r++ {
			delay := noDelay
			if s == 0 && r == 1 {
				var n atomic.Uint64
				delay = func() time.Duration {
					if n.Add(1)%8 == 0 {
						return 2 * time.Millisecond
					}
					return 0
				}
			}
			addr, _ := startWorkLeaf(b, delay)
			groups[s] = append(groups[s], addr)
		}
	}
	addr, _ := startTailMidTier(b, groups, &Options{Workers: 4, EdgePolicy: EdgePolicy{Tail: tail}}, nil)
	c, err := rpc.Dial(addr, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })

	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := c.Call("q", []byte("x")); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(start))
	}
	b.StopTimer()
	b.ReportMetric(float64(p99(lat)), "p99-ns")
}

func BenchmarkTailFanoutNoHedge(b *testing.B) {
	benchmarkTailFanout(b, TailPolicy{})
}

func BenchmarkTailFanoutHedged(b *testing.B) {
	benchmarkTailFanout(b, TailPolicy{
		HedgePercentile: 0.95,
		HedgeMinDelay:   500 * time.Microsecond,
	})
}

// benchmarkLeafBatching drives a 2-shard fan-out from 64 concurrent
// clients.  With batching the mid-tier coalesces the concurrent leaf calls
// bound for each shard into carrier RPCs, amortizing framing, syscall and
// dispatch costs; ns/op is the throughput comparison, p99-ns the latency
// side of the trade, batch-occupancy the members a carrier achieved.
func benchmarkLeafBatching(b *testing.B, batch BatchPolicy) {
	groups := make([][]string, 2)
	for s := range groups {
		addr, _ := startWorkLeaf(b, noDelay)
		groups[s] = []string{addr}
	}
	addr, _ := startTailMidTier(b, groups, &Options{Workers: 4, EdgePolicy: EdgePolicy{Batch: batch}}, nil)

	var mu sync.Mutex
	lat := make([]time.Duration, 0, b.N)
	b.SetParallelism(64) // keep well over MaxBatch requests in flight so size, not deadline, flushes
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c, err := rpc.Dial(addr, nil)
		if err != nil {
			b.Error(err)
			return
		}
		defer c.Close()
		local := make([]time.Duration, 0, 512)
		done := make(chan *rpc.Call, 1)
		for pb.Next() {
			start := time.Now()
			c.Go("q", []byte("payload-abcdef"), nil, done)
			if call := <-done; call.Err != nil {
				b.Error(call.Err)
				return
			}
			local = append(local, time.Since(start))
		}
		mu.Lock()
		lat = append(lat, local...)
		mu.Unlock()
	})
	b.StopTimer()
	if len(lat) == 0 {
		return
	}
	b.ReportMetric(float64(p99(lat)), "p99-ns")
	sc, err := rpc.Dial(addr, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer sc.Close()
	st, err := QueryStats(sc)
	if err != nil {
		b.Fatal(err)
	}
	if st.BatchCarriers > 0 {
		b.ReportMetric(float64(st.BatchMembers)/float64(st.BatchCarriers), "batch-occupancy")
	}
}

func BenchmarkLeafBatching(b *testing.B) {
	b.Run("batch=1", func(b *testing.B) {
		benchmarkLeafBatching(b, BatchPolicy{})
	})
	b.Run("batch=16", func(b *testing.B) {
		benchmarkLeafBatching(b, BatchPolicy{MaxBatch: 16})
	})
}
