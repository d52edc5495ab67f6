package kernel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The intra-request parallel scan: one global, lazily started helper pool
// shared by every engine in the process (engines are thin configs, so a
// process with many in-memory leaves — the test clusters — never multiplies
// goroutines), and an index-stealing parallel-for whose caller participates.
// Work is handed out in fixed chunks claimed from a shared atomic cursor, so
// a helper descheduled mid-scan costs one chunk of imbalance, not a static
// half of the range; and there is no per-request goroutine spawn — paper
// Figs. 11–14 charge exactly that clone/futex churn against thread-per-
// request designs.

const (
	// minParallelPoints is the scan size below which recruiting helpers
	// costs more than it saves and the scan stays on the caller.
	minParallelPoints = 4096
	// chunkPoints is the index-stealing claim granularity: large enough to
	// amortize the atomic add, small enough to balance tail chunks.
	chunkPoints = 1024
)

// job is one parallel-for in flight; pooled so steady-state scans allocate
// nothing.
type job struct {
	fn    func(worker, lo, hi int)
	n     int64
	chunk int64
	next  atomic.Int64
	slot  atomic.Int32
	wg    sync.WaitGroup
}

var jobPool = sync.Pool{New: func() any { return new(job) }}

var (
	helpersOnce sync.Once
	helperCh    chan *job
)

// startHelpers launches the global helper pool: NumCPU-1 goroutines (the
// caller is the final participant), parked on an unbuffered channel so a
// failed non-blocking send means "no helper is idle" and the caller simply
// keeps the work.
func startHelpers() {
	helpersOnce.Do(func() {
		helperCh = make(chan *job)
		for i := runtime.NumCPU() - 1; i > 0; i-- {
			go func() {
				for j := range helperCh {
					j.run()
					j.wg.Done()
				}
			}()
		}
	})
}

// run claims a worker slot, then steals chunks until the range is exhausted.
func (j *job) run() {
	w := int(j.slot.Add(1)) - 1
	for {
		lo := j.next.Add(j.chunk) - j.chunk
		if lo >= j.n {
			return
		}
		hi := lo + j.chunk
		if hi > j.n {
			hi = j.n
		}
		j.fn(w, int(lo), int(hi))
	}
}

// ParallelFor exposes the index-stealing parallel-for to engine-adjacent
// packages (the ann compressed-store scans), sharing the process-global
// helper pool.  fn receives a stable worker index in [0, par) — key
// per-worker state (top-k heaps) off it; small ranges and par ≤ 1 run
// inline on the caller.
func ParallelFor(par, n int, fn func(worker, lo, hi int)) { parallelFor(par, n, fn) }

// staysOnCaller reports whether a parallelFor over n items recruits nobody.
// A caller that asks first can run its loop directly and spare the closure,
// which otherwise escapes through the job and costs the scan's only
// allocation.
func staysOnCaller(par, n int) bool { return par <= 1 || n < minParallelPoints }

// parallelFor runs fn over [0, n) with up to par participants (the caller
// plus recruited idle helpers).  fn receives a stable worker index in
// [0, par) — callers key per-worker state (top-k heaps) off it.  Small
// ranges and par ≤ 1 run inline.
func parallelFor(par, n int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if staysOnCaller(par, n) {
		fn(0, 0, n)
		return
	}
	forkJoin(par, n, chunkPoints, fn)
}

// forkJoin is parallelFor past the stays-on-caller test, for a caller that
// made it on a different number than n (a row set counts rows and splits
// words): the range is claimed chunk items at a time.
func forkJoin(par, n, chunk int, fn func(worker, lo, hi int)) {
	startHelpers()
	j := jobPool.Get().(*job)
	j.fn = fn
	j.n = int64(n)
	j.chunk = int64(chunk)
	j.next.Store(0)
	j.slot.Store(0)
	for i := 1; i < par; i++ {
		j.wg.Add(1)
		sent := false
		select {
		case helperCh <- j:
			sent = true
		default:
		}
		if !sent {
			j.wg.Done()
			break
		}
	}
	j.run()
	j.wg.Wait()
	j.fn = nil
	jobPool.Put(j)
}
