// Package core implements the μSuite mid-tier microservice framework of
// paper §IV: blocking network pollers feeding a dispatch-based worker pool
// through producer–consumer task queues, asynchronous RPC fan-out to leaf
// microservers, and a dedicated response thread pool that counts down and
// merges leaf responses.  The in-line and polling variants discussed in the
// paper's §VII (blocking-vs-polling, dispatch-vs-in-line) are selectable so
// the ablation experiments can be run.
package core

import (
	"errors"
	"runtime"
	"time"

	"musuite/internal/telemetry"
)

// WaitMode selects how idle framework threads await work (§VII's
// blocking-vs-polling trade-off).
type WaitMode int

const (
	// WaitBlocking parks idle threads on a condition variable, conserving
	// CPU at the cost of OS wakeup latency — μSuite's default design.
	WaitBlocking WaitMode = iota
	// WaitPolling spins (with scheduler yields) until work arrives,
	// trading CPU burn for lower wakeup latency.
	WaitPolling
	// WaitAdaptive spins briefly and then parks — the hybrid the paper's
	// §VII proposes exploring ("policies that trade off blocking vs.
	// polling, either statically or dynamically").  At high load work
	// usually arrives within the spin budget (polling-like latency); at
	// low load the thread parks (blocking-like CPU economy).
	WaitAdaptive
)

// adaptiveSpinBudget bounds how many scheduler yields an adaptive waiter
// burns before parking.  Each yield costs roughly a context-switch quantum,
// so the budget approximates "spin for about one dispatch latency".
const adaptiveSpinBudget = 64

// String names the wait mode.
func (w WaitMode) String() string {
	switch w {
	case WaitPolling:
		return "polling"
	case WaitAdaptive:
		return "adaptive"
	}
	return "blocking"
}

// DispatchMode selects where a request's handler runs: on the network poller
// that decoded it, or on a worker the poller hands it to (§VII's
// dispatch-vs-in-line).
type DispatchMode int

const (
	// DispatchAuto — the zero value — runs each request to completion on its
	// poller unless more input was already buffered behind its frame
	// (rpc.Request.Backlogged) or another request's handler is still queued
	// or running: the cases in which a hand-off buys overlap — the worker
	// computes while the poller decodes the next frame — and in which the
	// queue holds work a request run in-line would overtake.  Otherwise the
	// poller would only go back to sleep, and the hand-off would cost a
	// wake-up (DESIGN §5.3) for nothing.  §VII's "dynamic adaptation system that
	// judiciously chooses to dispatch requests", with no threshold.
	DispatchAuto DispatchMode = iota
	// Dispatched always hands the request to the worker pool — the paper's
	// §IV design, kept as a fixed mode for the §VII ablation.
	Dispatched
	// Inline always runs the handler on the network poller thread — the
	// ablation's other fixed mode.
	Inline
)

// String names the dispatch mode.
func (d DispatchMode) String() string {
	switch d {
	case Dispatched:
		return "dispatched"
	case Inline:
		return "inline"
	}
	return "auto"
}

// ErrPoolClosed reports a submit to a stopped pool.
var ErrPoolClosed = errors.New("core: worker pool closed")

// task carries one queued unit of work — a shared function plus its
// argument, so a submit allocates no closure — and, when a probe will record
// it, its enqueue instant, from which the dispatch/wakeup latency (the
// paper's Active-Exe analog) is measured.
type task struct {
	fn       func(any)
	arg      any
	enqueued time.Time
}

// taskRing is a growable circular FIFO of tasks.  A plain slice queue
// (append at the tail, reslice [1:] at the head) erodes its backing
// capacity on every dequeue and reallocates steadily; the ring reuses one
// backing array so a steady-state enqueue/dequeue cycle allocates nothing.
type taskRing struct {
	buf  []task
	head int
	n    int
}

func (r *taskRing) len() int { return r.n }

func (r *taskRing) push(t task) {
	if r.n == len(r.buf) {
		next := make([]task, max(2*len(r.buf), 8))
		for i := 0; i < r.n; i++ {
			next[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = next, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = t
	r.n++
}

func (r *taskRing) pop() task {
	t := r.buf[r.head]
	r.buf[r.head] = task{} // drop references for the collector
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return t
}

func (r *taskRing) reset() {
	r.buf, r.head, r.n = nil, 0, 0
}

// WorkerPool is a fixed-size thread pool fed by a producer–consumer queue.
// Workers "park" and "unpark" on a condition variable (blocking mode) to
// avoid thread creation and management overheads, exactly as §IV describes.
//
// Instrumentation: every enqueue counts one write(2) proxy (the eventfd
// signal a native implementation uses), every dequeue one read(2) proxy,
// condition-variable traffic counts futexes and context switches through
// telemetry.Cond, and the enqueue→execution delay of every task is observed
// under the pool's configured overhead class (Active-Exe for request
// workers, Sched for response threads).
type WorkerPool struct {
	mu     *telemetry.Mutex
	cond   *telemetry.Cond
	queue  taskRing
	closed bool

	mode     WaitMode
	probe    *telemetry.Probe
	overhead telemetry.Overhead
	done     chan struct{} // closed when all workers exit
	workers  int
}

// NewWorkerPool starts n workers.  overhead selects the telemetry class for
// the enqueue→execution latency of this pool's tasks.
func NewWorkerPool(n int, mode WaitMode, probe *telemetry.Probe, overhead telemetry.Overhead) *WorkerPool {
	if n < 1 {
		n = 1
	}
	p := &WorkerPool{
		mode:     mode,
		probe:    probe,
		overhead: overhead,
		done:     make(chan struct{}),
		workers:  n,
	}
	p.mu = telemetry.NewMutex(probe)
	p.cond = telemetry.NewCond(p.mu, probe)
	exited := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		// Spawning a worker is the clone(2) analog.
		probe.Add(telemetry.SysClone, 1)
		go func() {
			p.run()
			exited <- struct{}{}
		}()
	}
	go func() {
		for i := 0; i < n; i++ {
			<-exited
		}
		close(p.done)
	}()
	return p
}

// Workers reports the pool size.
func (p *WorkerPool) Workers() int { return p.workers }

// SubmitArg enqueues fn(arg); it returns ErrPoolClosed after Stop.  Callers
// pass a long-lived fn and a per-task arg, so a submit allocates no closure
// (a pointer arg boxes into the interface word without allocating).
func (p *WorkerPool) SubmitArg(fn func(any), arg any) error {
	t := task{fn: fn, arg: arg, enqueued: p.probe.Start()}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrPoolClosed
	}
	p.queue.push(t)
	// The hand-off signal is the write(2)-on-eventfd analog.  Polling
	// workers never park, so only the modes with parked waiters signal.
	p.probe.Add(telemetry.SysWrite, 1)
	if p.mode != WaitPolling {
		p.cond.Signal()
	}
	p.mu.Unlock()
	return nil
}

// QueueDepth reports the number of tasks waiting (diagnostics only).
func (p *WorkerPool) QueueDepth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queue.len()
}

// Stop drains nothing: queued but unexecuted tasks are dropped.  It blocks
// until every worker has exited.
func (p *WorkerPool) Stop() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.done
		return
	}
	p.closed = true
	p.queue.reset()
	// Wake any parked workers (blocking or adaptive); harmlessly a no-op
	// for polling workers, which observe the closed flag on their next
	// spin.
	p.cond.Broadcast()
	p.mu.Unlock()
	<-p.done
}

// run is the worker loop: pull a task, observe its dispatch latency, execute,
// and go back to awaiting work.
func (p *WorkerPool) run() {
	for {
		t, ok := p.next()
		if !ok {
			return
		}
		p.probe.ObserveSince(p.overhead, t.enqueued)
		t.fn(t.arg)
	}
}

// next blocks (or polls) until a task or shutdown.
func (p *WorkerPool) next() (task, bool) {
	spins := 0
	for {
		p.mu.Lock()
		for p.queue.len() == 0 && !p.closed {
			switch p.mode {
			case WaitBlocking:
				p.cond.Wait()
				continue
			case WaitAdaptive:
				if spins >= adaptiveSpinBudget {
					// Spin budget exhausted: park like a
					// blocking worker until signalled.
					p.cond.Wait()
					spins = 0
					continue
				}
				spins++
			}
			// Polling (or an adaptive spin): release the lock and
			// yield to the scheduler.  No futex, no park.
			p.mu.Unlock()
			runtime.Gosched()
			p.mu.Lock()
		}
		spins = 0
		if p.closed {
			p.mu.Unlock()
			return task{}, false
		}
		t := p.queue.pop()
		// Consuming the hand-off is the read(2)-on-eventfd analog.
		p.probe.Add(telemetry.SysRead, 1)
		p.mu.Unlock()
		return t, true
	}
}
