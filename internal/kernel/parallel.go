package kernel

import (
	"sync"
	"sync/atomic"
)

const (
	// minParallelPoints is the range below which starting goroutines costs
	// more than it saves and the loop stays on the caller.
	minParallelPoints = 4096
	// chunkPoints is the claim granularity: large enough to amortize the
	// atomic add, small enough that a goroutine descheduled mid-range costs
	// one chunk of imbalance, not a static share of the range.
	chunkPoints = 1024
)

// ParallelFor runs fn over [0, n) on the caller and up to par−1 goroutines
// started for the call, each claiming chunkPoints items at a time from a
// shared cursor, and returns once the range is done.  Ranges under
// minParallelPoints, and par ≤ 1, run on the caller alone.  It is for
// offline work — store, plane, index and model builds; a request's scan runs
// on the goroutine that serves it.
func ParallelFor(par, n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if par <= 1 || n < minParallelPoints {
		fn(0, n)
		return
	}
	ParallelEach(par, (n+chunkPoints-1)/chunkPoints, func(c int) {
		fn(c*chunkPoints, min(c*chunkPoints+chunkPoints, n))
	})
}

// ParallelEach runs fn(0) … fn(n−1) on the caller and up to par−1
// goroutines started for the call, each taking the next index from a shared
// cursor, and returns once all have returned — ParallelFor's chunks, or a
// few large items of their own: an index's tables, a corpus's shards.
func ParallelEach(par, n int, fn func(i int)) {
	var next atomic.Int64
	run := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := min(par, n) - 1; w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
}
