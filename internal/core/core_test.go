package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"musuite/internal/rpc"
	"musuite/internal/telemetry"
)

func TestWorkerPoolExecutesAll(t *testing.T) {
	for _, mode := range []WaitMode{WaitBlocking, WaitPolling} {
		t.Run(mode.String(), func(t *testing.T) {
			p := NewWorkerPool(3, mode, nil, telemetry.OverheadActiveExe)
			defer p.Stop()
			var count atomic.Int64
			var wg sync.WaitGroup
			const n = 500
			wg.Add(n)
			for i := 0; i < n; i++ {
				if err := submit(p, func() {
					count.Add(1)
					wg.Done()
				}); err != nil {
					t.Fatal(err)
				}
			}
			wg.Wait()
			if count.Load() != n {
				t.Fatalf("executed %d of %d", count.Load(), n)
			}
		})
	}
}

func TestWorkerPoolStopRejectsSubmit(t *testing.T) {
	p := NewWorkerPool(2, WaitBlocking, nil, telemetry.OverheadActiveExe)
	p.Stop()
	if err := submit(p, func() {}); err != ErrPoolClosed {
		t.Fatalf("err=%v want ErrPoolClosed", err)
	}
	// Stop is idempotent.
	p.Stop()
}

func TestWorkerPoolConcurrency(t *testing.T) {
	p := NewWorkerPool(4, WaitBlocking, nil, telemetry.OverheadActiveExe)
	defer p.Stop()
	// With 4 workers, 4 tasks that each block until all have started must
	// be able to run simultaneously.
	var started sync.WaitGroup
	started.Add(4)
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(4)
	for i := 0; i < 4; i++ {
		submit(p, func() {
			started.Done()
			<-release
			wg.Done()
		})
	}
	ok := make(chan struct{})
	go func() { started.Wait(); close(ok) }()
	select {
	case <-ok:
	case <-time.After(2 * time.Second):
		t.Fatal("workers did not run concurrently")
	}
	close(release)
	wg.Wait()
}

func TestWorkerPoolTelemetry(t *testing.T) {
	probe := telemetry.NewProbe()
	p := NewWorkerPool(2, WaitBlocking, probe, telemetry.OverheadActiveExe)
	defer p.Stop()
	var wg sync.WaitGroup
	const n = 50
	wg.Add(n)
	for i := 0; i < n; i++ {
		submit(p, func() { wg.Done() })
	}
	wg.Wait()
	if got := probe.Load(telemetry.SysWrite); got != n {
		t.Errorf("write proxies=%d want %d", got, n)
	}
	if got := probe.Load(telemetry.SysRead); got != n {
		t.Errorf("read proxies=%d want %d", got, n)
	}
	if probe.Load(telemetry.SysClone) < 2 {
		t.Error("clone proxies < worker count")
	}
	if probe.Load(telemetry.SysFutex) == 0 {
		t.Error("no futex proxies from cond traffic")
	}
	if probe.OverheadSnapshot(telemetry.OverheadActiveExe).Count != n {
		t.Errorf("ActiveExe observations=%d want %d", probe.OverheadSnapshot(telemetry.OverheadActiveExe).Count, n)
	}
}

func TestPollingModeAvoidsFutex(t *testing.T) {
	probe := telemetry.NewProbe()
	p := NewWorkerPool(1, WaitPolling, probe, telemetry.OverheadActiveExe)
	var wg sync.WaitGroup
	const n = 20
	wg.Add(n)
	for i := 0; i < n; i++ {
		submit(p, func() { wg.Done() })
	}
	wg.Wait()
	p.Stop()
	// Polling workers never Wait/Signal; futex count stays at (near) zero —
	// only contended mutex acquisitions could contribute.
	futex := probe.Load(telemetry.SysFutex)
	blocking := func() uint64 {
		probe2 := telemetry.NewProbe()
		p2 := NewWorkerPool(1, WaitBlocking, probe2, telemetry.OverheadActiveExe)
		defer p2.Stop()
		var wg2 sync.WaitGroup
		wg2.Add(n)
		for i := 0; i < n; i++ {
			submit(p2, func() { wg2.Done() })
			time.Sleep(time.Millisecond) // force a park between tasks
		}
		wg2.Wait()
		return probe2.Load(telemetry.SysFutex)
	}()
	if futex >= blocking {
		t.Errorf("polling futex=%d not below blocking futex=%d", futex, blocking)
	}
}

// submit enqueues fn through the pool's one submit path.
func submit(p *WorkerPool, fn func()) error { return p.SubmitArg(callFunc, fn) }

func callFunc(fn any) { fn.(func())() }

// waitFor polls cond until it holds.  It is for observations the stats
// contract does not cover because they time the reply write itself and so
// land after it — Net/Block overhead samples, server spans;
// counters need no waiting.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// startLeaf runs a leaf that echoes, doubles integers, or fails on demand.
func startLeaf(t *testing.T, probe *telemetry.Probe) (string, *Leaf) {
	t.Helper()
	leaf := NewLeaf(func(method string, payload []byte) ([]byte, error) {
		switch method {
		case "echo":
			out := make([]byte, len(payload))
			copy(out, payload)
			return out, nil
		case "double":
			n, err := strconv.Atoi(string(payload))
			if err != nil {
				return nil, err
			}
			return []byte(strconv.Itoa(2 * n)), nil
		case "fail":
			return nil, errors.New("leaf failure")
		case "panic":
			panic("deliberate")
		}
		return nil, fmt.Errorf("unknown method %q", method)
	}, &LeafOptions{Workers: 2, Probe: probe})
	addr, err := leaf.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(leaf.Close)
	return addr, leaf
}

// forwardToLeaf answers the request with one leaf's reply to the request's
// own payload — a point read, made the way Router's get makes it: as a
// one-call fan-out.
func forwardToLeaf(ctx *Ctx, shard int, method string) {
	ctx.Fanout([]LeafCall{{Shard: shard, Method: method, Payload: ctx.Req.Payload}}, func(results []LeafResult) {
		if err := results[0].Err; err != nil {
			ctx.ReplyError(err)
			return
		}
		ctx.Reply(results[0].Reply)
	})
}

// startMidTier wires a mid-tier that fans "sum" requests to all leaves
// (each leaf doubles the integer; the mid-tier sums the results) and
// forwards "echo1" to shard 0 only.
func startMidTier(t *testing.T, leafAddrs []string, opts *Options) (string, *MidTier) {
	t.Helper()
	mt := NewMidTier(func(ctx *Ctx) {
		switch ctx.Req.Method {
		case "sum":
			payload := make([]byte, len(ctx.Req.Payload))
			copy(payload, ctx.Req.Payload)
			ctx.FanoutAll("double", payload, func(results []LeafResult) {
				total := 0
				for _, r := range results {
					if r.Err != nil {
						ctx.ReplyError(r.Err)
						return
					}
					n, _ := strconv.Atoi(string(r.Reply))
					total += n
				}
				ctx.Reply([]byte(strconv.Itoa(total)))
			})
		case "echo1":
			forwardToLeaf(ctx, 0, "echo")
		case "failall":
			ctx.FanoutAll("fail", nil, func(results []LeafResult) {
				for _, r := range results {
					if r.Err != nil {
						ctx.ReplyError(r.Err)
						return
					}
				}
				ctx.Reply([]byte("no failure?"))
			})
		case "badshard":
			ctx.Fanout([]LeafCall{{Shard: 99, Method: "echo"}}, func(results []LeafResult) {
				ctx.ReplyError(results[0].Err)
			})
		default:
			ctx.ReplyError(fmt.Errorf("unknown method %q", ctx.Req.Method))
		}
	}, opts)
	if err := mt.ConnectLeaves(leafAddrs); err != nil {
		t.Fatal(err)
	}
	addr, err := mt.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mt.Close)
	return addr, mt
}

func testTopology(t *testing.T, opts *Options) (client *rpc.Client, mt *MidTier) {
	t.Helper()
	leafAddrs := make([]string, 3)
	for i := range leafAddrs {
		leafAddrs[i], _ = startLeaf(t, nil)
	}
	addr, mt := startMidTier(t, leafAddrs, opts)
	c, err := rpc.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, mt
}

func TestMidTierFanoutMerge(t *testing.T) {
	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"dispatch-blocking", Options{Dispatch: Dispatched, Wait: WaitBlocking}},
		{"dispatch-polling", Options{Dispatch: Dispatched, Wait: WaitPolling}},
		{"inline-blocking", Options{Dispatch: Inline, Wait: WaitBlocking}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			opts := cfg.opts
			c, mt := testTopology(t, &opts)
			if mt.NumLeaves() != 3 {
				t.Fatalf("leaves=%d", mt.NumLeaves())
			}
			// 3 leaves double 7 → merge sums to 42.
			reply, err := c.Call("sum", []byte("7"))
			if err != nil {
				t.Fatal(err)
			}
			if string(reply) != "42" {
				t.Fatalf("reply=%q want 42", reply)
			}
		})
	}
}

func TestMidTierManyConcurrentRequests(t *testing.T) {
	c, _ := testTopology(t, nil)
	hammerSum(t, c, 8, 25)
}

// TestFanoutIssuerHold is the regression for the fan-out recycling under
// its issuer: leaves that reply instantly, no hedge and no fan-out timeout,
// so the issue loop's own hold is the only thing keeping the pooled fan-out
// alive while issueAttempt tracks each attempt.  Run under -race; without
// the hold fanout.recycle races issueAttempt within a few hundred requests.
func TestFanoutIssuerHold(t *testing.T) {
	c, _ := testTopology(t, &Options{Workers: 4, ResponseThreads: 4})
	hammerSum(t, c, 4, 1000)
}

// hammerSum issues perG "sum" fan-outs from each of g goroutines over one
// connection and checks every merged reply.
func hammerSum(t *testing.T, c *rpc.Client, g, perG int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, g) // one slot per goroutine: each reports at most once
	for gi := 0; gi < g; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				n := gi*perG + i
				reply, err := c.Call("sum", []byte(strconv.Itoa(n)))
				if err != nil {
					errs <- err
					return
				}
				if want := strconv.Itoa(6 * n); string(reply) != want {
					errs <- fmt.Errorf("sum(%d)=%q want %q", n, reply, want)
					return
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestMidTierSingleLeafCall(t *testing.T) {
	c, _ := testTopology(t, nil)
	reply, err := c.Call("echo1", []byte("point-read"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reply, []byte("point-read")) {
		t.Fatalf("reply=%q", reply)
	}
}

func TestMidTierLeafErrorPropagates(t *testing.T) {
	c, _ := testTopology(t, nil)
	_, err := c.Call("failall", nil)
	if err == nil || !strings.Contains(err.Error(), "leaf failure") {
		t.Fatalf("err=%v", err)
	}
}

func TestMidTierInvalidShard(t *testing.T) {
	c, _ := testTopology(t, nil)
	_, err := c.Call("badshard", nil)
	if err == nil || !strings.Contains(err.Error(), "no such leaf shard") {
		t.Fatalf("err=%v", err)
	}
}

func TestLeafPanicIsolated(t *testing.T) {
	addr, leaf := startLeaf(t, nil)
	c, err := rpc.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call("panic", nil); err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("err=%v", err)
	}
	// The leaf survives and keeps serving.
	reply, err := c.Call("echo", []byte("alive"))
	if err != nil || string(reply) != "alive" {
		t.Fatalf("post-panic echo: %q %v", reply, err)
	}
	if leaf.Stats().Served < 2 {
		t.Errorf("served=%d", leaf.Stats().Served)
	}
}

func TestMidTierTelemetryPipeline(t *testing.T) {
	probe := telemetry.NewProbe()
	leafAddrs := make([]string, 2)
	for i := range leafAddrs {
		leafAddrs[i], _ = startLeaf(t, nil)
	}
	// The paper's pipeline, sample by sample: the default's counterpart is
	// TestLoneRequestRunsOnItsPoller.
	opts := Options{Dispatch: Dispatched, Probe: probe}
	addr, _ := startMidTier(t, leafAddrs, &opts)
	c, err := rpc.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 30
	for i := 0; i < n; i++ {
		if _, err := c.Call("sum", []byte("1")); err != nil {
			t.Fatal(err)
		}
	}
	// Every request: 1 worker dispatch (ActiveExe) + Block hand-off.
	if got := probe.OverheadSnapshot(telemetry.OverheadActiveExe).Count; got < n {
		t.Errorf("ActiveExe=%d want ≥%d", got, n)
	}
	// The poller records the hand-off cost after the worker already has the
	// request, so the last sample can trail the last reply.
	waitFor(t, "the Block sample of every hand-off", func() bool {
		return probe.OverheadSnapshot(telemetry.OverheadBlock).Count >= n
	})
	if got := probe.OverheadSnapshot(telemetry.OverheadBlock).Count; got != n {
		t.Errorf("Block=%d want %d", got, n)
	}
	// Every leaf response flows through the response pool (Sched class):
	// 2 leaves × n requests.
	if got := probe.OverheadSnapshot(telemetry.OverheadSched).Count; got != 2*n {
		t.Errorf("Sched=%d want %d", got, 2*n)
	}
	// The mid-tier measures Net for each front-end response, once its write
	// has completed.
	waitFor(t, "the Net sample of every front-end response", func() bool {
		return probe.OverheadSnapshot(telemetry.OverheadNet).Count >= n
	})
	if probe.Load(telemetry.SysFutex) == 0 {
		t.Error("no futex traffic in dispatch pipeline")
	}
}

func TestConnectLeavesAfterStartRejected(t *testing.T) {
	mt := NewMidTier(func(ctx *Ctx) { ctx.Reply(nil) }, nil)
	defer mt.Close()
	if _, err := mt.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := mt.ConnectLeaves([]string{"127.0.0.1:1"}); err == nil {
		t.Fatal("ConnectLeaves after Start succeeded")
	}
}

func TestConnectLeavesDialFailure(t *testing.T) {
	mt := NewMidTier(func(ctx *Ctx) {}, nil)
	if err := mt.ConnectLeaves([]string{"127.0.0.1:1"}); err == nil {
		t.Fatal("dial to dead leaf succeeded")
	}
}

func TestFanoutEmptyCallList(t *testing.T) {
	leafAddr, _ := startLeaf(t, nil)
	mt := NewMidTier(func(ctx *Ctx) {
		ctx.Fanout(nil, func(results []LeafResult) {
			if len(results) != 0 {
				ctx.ReplyError(errors.New("unexpected results"))
				return
			}
			ctx.Reply([]byte("empty-ok"))
		})
	}, nil)
	if err := mt.ConnectLeaves([]string{leafAddr}); err != nil {
		t.Fatal(err)
	}
	addr, err := mt.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mt.Close)
	c, _ := rpc.Dial(addr, nil)
	defer c.Close()
	reply, err := c.Call("anything", nil)
	if err != nil || string(reply) != "empty-ok" {
		t.Fatalf("%q %v", reply, err)
	}
}

func TestMidTierCloseIdempotent(t *testing.T) {
	mt := NewMidTier(func(ctx *Ctx) {}, nil)
	mt.Close()
	mt.Close()
}

func TestAdaptiveModeExecutesAll(t *testing.T) {
	p := NewWorkerPool(2, WaitAdaptive, nil, telemetry.OverheadActiveExe)
	defer p.Stop()
	var count atomic.Int64
	var wg sync.WaitGroup
	const n = 300
	wg.Add(n)
	for i := 0; i < n; i++ {
		if err := submit(p, func() {
			count.Add(1)
			wg.Done()
		}); err != nil {
			t.Fatal(err)
		}
		if i%50 == 0 {
			// Idle gaps long enough to exhaust the spin budget and
			// park, exercising both adaptive paths.
			time.Sleep(5 * time.Millisecond)
		}
	}
	wg.Wait()
	if count.Load() != n {
		t.Fatalf("executed %d of %d", count.Load(), n)
	}
}

func TestAdaptiveFewerParksThanBlocking(t *testing.T) {
	// Tasks arrive one at a time, each submitted the moment the previous one
	// has run: the queue is empty whenever the worker comes back for more,
	// and refills within a fraction of the spin budget.  A blocking worker
	// parks in that gap; an adaptive one spins through it.  (A free-running
	// producer would make the park counts a scheduler coin-toss: whichever
	// side happens to run ahead decides them.)
	run := func(mode WaitMode) uint64 {
		probe := telemetry.NewProbe()
		p := NewWorkerPool(1, mode, probe, telemetry.OverheadActiveExe)
		defer p.Stop()
		const n = 400
		var ran atomic.Int64
		for i := int64(1); i <= n; i++ {
			submit(p, func() { ran.Add(1) })
			for ran.Load() < i {
				runtime.Gosched() // a spinning producer reacts in well under the budget
			}
		}
		return probe.Load(telemetry.CtxSwitch)
	}
	// Whether the spin pays off is the scheduler's call.  After a test that
	// loaded both CPUs, or beside a package under test next door, the
	// producer is descheduled through whole spin budgets for milliseconds at
	// a time; both modes then park on every task and the counts differ by
	// lock-contention noise.  Those spells last a few rounds, so the claim —
	// which is about a host with a CPU to spin on — is checked on the first
	// round that finds one.
	const rounds = 20
	var adaptive, blocking uint64
	for r := 0; r < rounds; r++ {
		adaptive, blocking = run(WaitAdaptive), run(WaitBlocking)
		t.Logf("round %d: parks over 400 paced tasks: adaptive %d, blocking %d", r, adaptive, blocking)
		if adaptive <= blocking {
			return
		}
	}
	t.Fatalf("adaptive parked more than blocking in each of %d rounds, last %d vs %d", rounds, adaptive, blocking)
}

func TestAdaptiveStopWhileParked(t *testing.T) {
	p := NewWorkerPool(2, WaitAdaptive, nil, telemetry.OverheadActiveExe)
	// Give workers time to exhaust spin budgets and park.
	time.Sleep(20 * time.Millisecond)
	doneCh := make(chan struct{})
	go func() {
		p.Stop()
		close(doneCh)
	}()
	select {
	case <-doneCh:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop hung with parked adaptive workers")
	}
}

func TestWaitModeStrings(t *testing.T) {
	if WaitBlocking.String() != "blocking" || WaitPolling.String() != "polling" || WaitAdaptive.String() != "adaptive" {
		t.Fatal("wait mode names wrong")
	}
	if Dispatched.String() != "dispatched" || Inline.String() != "inline" {
		t.Fatal("dispatch mode names wrong")
	}
}
