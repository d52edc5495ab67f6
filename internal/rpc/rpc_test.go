package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"musuite/internal/telemetry"

	"musuite/internal/trace"
)

// echoServer starts a server whose "echo" method returns the payload and
// whose "fail" method returns an error, replying inline on the poller.
func echoServer(t *testing.T, probe *telemetry.Probe) (*Server, string) {
	t.Helper()
	srv := NewServer(func(req *Request) {
		switch req.Method {
		case "echo":
			req.Reply(req.Payload)
		case "fail":
			req.ReplyError(errors.New("intentional failure"))
		case "slow":
			go func() {
				time.Sleep(50 * time.Millisecond)
				req.Reply(req.Payload)
			}()
		default:
			req.ReplyError(fmt.Errorf("unknown method %q", req.Method))
		}
	}, &ServerOptions{Probe: probe})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

func TestCallRoundTrip(t *testing.T) {
	_, addr := echoServer(t, nil)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reply, err := c.Call("echo", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "hello" {
		t.Fatalf("reply=%q", reply)
	}
}

func TestCallEmptyAndLargePayloads(t *testing.T) {
	_, addr := echoServer(t, nil)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if reply, err := c.Call("echo", nil); err != nil || len(reply) != 0 {
		t.Fatalf("empty payload: reply=%v err=%v", reply, err)
	}
	big := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(big)
	reply, err := c.Call("echo", big)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reply, big) {
		t.Fatal("1MB payload corrupted")
	}
}

func TestRemoteError(t *testing.T) {
	_, addr := echoServer(t, nil)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call("fail", nil)
	if err == nil || !strings.Contains(err.Error(), "intentional failure") {
		t.Fatalf("err=%v", err)
	}
	// The connection stays usable after a remote error.
	if _, err := c.Call("echo", []byte("x")); err != nil {
		t.Fatalf("post-error call failed: %v", err)
	}
}

func TestUnknownMethod(t *testing.T) {
	_, addr := echoServer(t, nil)
	c, _ := Dial(addr, nil)
	defer c.Close()
	_, err := c.Call("nope", nil)
	if err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("err=%v", err)
	}
}

func TestAsyncGoManyInFlight(t *testing.T) {
	_, addr := echoServer(t, nil)
	c, _ := Dial(addr, nil)
	defer c.Close()

	const n = 200
	done := make(chan *Call, n)
	payloads := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("msg-%d", i)
		payloads[p] = true
		c.Go("echo", []byte(p), nil, done)
	}
	for i := 0; i < n; i++ {
		call := <-done
		if call.Err != nil {
			t.Fatal(call.Err)
		}
		if !payloads[string(call.Reply)] {
			t.Fatalf("unexpected reply %q", call.Reply)
		}
		delete(payloads, string(call.Reply))
	}
	if len(payloads) != 0 {
		t.Fatalf("%d replies missing", len(payloads))
	}
}

// TestNoCrossDelivery issues concurrent calls with distinct payloads and
// verifies each caller receives exactly its own echo — the pending-table
// correctness property.
func TestNoCrossDelivery(t *testing.T) {
	_, addr := echoServer(t, nil)
	c, _ := Dial(addr, nil)
	defer c.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				want := fmt.Sprintf("g%d-i%d", g, i)
				reply, err := c.Call("echo", []byte(want))
				if err != nil {
					errs <- err
					return
				}
				if string(reply) != want {
					errs <- fmt.Errorf("cross-delivery: want %q got %q", want, reply)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestAsyncReplyFromOtherGoroutine(t *testing.T) {
	_, addr := echoServer(t, nil)
	c, _ := Dial(addr, nil)
	defer c.Close()
	start := time.Now()
	reply, err := c.Call("slow", []byte("deferred"))
	if err != nil {
		t.Fatal(err)
	}
	if string(reply) != "deferred" {
		t.Fatalf("reply=%q", reply)
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Error("slow reply returned too quickly")
	}
}

func TestCallTimeout(t *testing.T) {
	_, addr := echoServer(t, nil)
	c, _ := Dial(addr, nil)
	defer c.Close()
	_, err := c.CallTimeout("slow", []byte("x"), 5*time.Millisecond)
	if err != ErrTimeout {
		t.Fatalf("err=%v want ErrTimeout", err)
	}
	// Late response for the abandoned call must not disturb later calls.
	time.Sleep(80 * time.Millisecond)
	reply, err := c.Call("echo", []byte("after"))
	if err != nil || string(reply) != "after" {
		t.Fatalf("post-timeout call: %q %v", reply, err)
	}
}

func TestCallTimeoutFastEnough(t *testing.T) {
	_, addr := echoServer(t, nil)
	c, _ := Dial(addr, nil)
	defer c.Close()
	reply, err := c.CallTimeout("echo", []byte("quick"), time.Second)
	if err != nil || string(reply) != "quick" {
		t.Fatalf("%q %v", reply, err)
	}
}

func TestClientCloseFailsPending(t *testing.T) {
	_, addr := echoServer(t, nil)
	c, _ := Dial(addr, nil)
	call := c.Go("slow", []byte("x"), nil, nil)
	time.Sleep(5 * time.Millisecond)
	c.Close()
	<-call.Done
	if call.Err == nil {
		t.Fatal("pending call survived Close without error")
	}
	// Calls after Close fail immediately.
	call2 := <-c.Go("echo", nil, nil, nil).Done
	if call2.Err != ErrClientClosed {
		t.Fatalf("err=%v want ErrClientClosed", call2.Err)
	}
}

func TestServerCloseFailsClients(t *testing.T) {
	srv, addr := echoServer(t, nil)
	c, _ := Dial(addr, nil)
	defer c.Close()
	if _, err := c.Call("echo", []byte("pre")); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	_, err := c.Call("echo", []byte("post"))
	if err == nil {
		t.Fatal("call succeeded after server close")
	}
}

func TestDialFailure(t *testing.T) {
	_, err := Dial("127.0.0.1:1", &ClientOptions{DialTimeout: 200 * time.Millisecond})
	if err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestPoolRoundRobin(t *testing.T) {
	_, addr := echoServer(t, nil)
	p, err := DialPool(addr, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if len(p.slots) != 3 {
		t.Fatalf("size=%d", len(p.slots))
	}
	seen := make(map[*Client]int)
	for i := 0; i < 9; i++ {
		seen[p.Pick()]++
	}
	if len(seen) != 3 {
		t.Fatalf("round-robin used %d of 3 conns", len(seen))
	}
	for c, n := range seen {
		if n != 3 {
			t.Errorf("conn %p picked %d times", c, n)
		}
		if _, err := c.Call("echo", []byte("pool")); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPoolDialFailureCleansUp(t *testing.T) {
	if _, err := DialPool("127.0.0.1:1", 2, &ClientOptions{DialTimeout: 200 * time.Millisecond}); err == nil {
		t.Fatal("pool dial to closed port succeeded")
	}
}

func TestTelemetryCountsFlow(t *testing.T) {
	probe := telemetry.NewProbe()
	_, addr := echoServer(t, probe)
	c, _ := Dial(addr, &ClientOptions{Probe: probe})
	defer c.Close()
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := c.Call("echo", []byte("t")); err != nil {
			t.Fatal(err)
		}
	}
	// Request + response per call, both directions instrumented on the
	// same probe: ≥ 2n sendmsg.
	if got := probe.Snapshot()[telemetry.SysSendmsg]; got < 2*n {
		t.Errorf("sendmsg=%d want ≥%d", got, 2*n)
	}
	if got := probe.Snapshot()[telemetry.SysRecvmsg]; got == 0 {
		t.Error("recvmsg=0")
	}
	if got := probe.Snapshot()[telemetry.SysEpollPwait]; got == 0 {
		t.Error("epoll_pwait=0")
	}
	if probe.Snapshot()[telemetry.SysClone] < 2 {
		t.Error("clone<2 (poller + client reader)")
	}
	if probe.OverheadSnapshot(telemetry.OverheadNetTx).Count == 0 {
		t.Error("no Net_tx observations")
	}
	// The Net sample times the response write, so the last one lands after
	// the client already has its reply.
	for deadline := time.Now().Add(2 * time.Second); probe.OverheadSnapshot(telemetry.OverheadNet).Count < n && time.Now().Before(deadline); {
		time.Sleep(200 * time.Microsecond)
	}
	if probe.OverheadSnapshot(telemetry.OverheadNet).Count != n {
		t.Errorf("Net observations=%d want %d", probe.OverheadSnapshot(telemetry.OverheadNet).Count, n)
	}
	if probe.OverheadSnapshot(telemetry.OverheadRCU).Count != n {
		t.Errorf("RCU observations=%d want %d", probe.OverheadSnapshot(telemetry.OverheadRCU).Count, n)
	}
}

func TestOnResponseHook(t *testing.T) {
	_, addr := echoServer(t, nil)
	var hookCalls int
	var mu sync.Mutex
	c, err := Dial(addr, &ClientOptions{OnResponse: func(call *Call) bool {
		mu.Lock()
		hookCalls++
		mu.Unlock()
		if call.Received.IsZero() {
			t.Error("Received not stamped before hook")
		}
		return false
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		c.Call("echo", []byte("h"))
	}
	mu.Lock()
	defer mu.Unlock()
	if hookCalls != 5 {
		t.Fatalf("hook calls=%d", hookCalls)
	}
}

func TestFrameEncodeDecodeProperty(t *testing.T) {
	f := func(id uint64, method string, payload []byte) bool {
		if len(method) > 1000 {
			method = method[:1000]
		}
		in := frame{kind: kindRequest, id: id, method: method, payload: payload}
		enc, err := appendFrame(nil, in.kind, in.id, trace.SpanContext{}, in.method, in.payload)
		if err != nil {
			return false
		}
		out, err := feedParser(enc)
		if err != nil || len(out) != 1 {
			return false
		}
		return out[0].kind == in.kind && out[0].id == in.id && out[0].method == in.method &&
			bytes.Equal(out[0].payload, in.payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMethodTooLong(t *testing.T) {
	in := frame{kind: kindRequest, method: strings.Repeat("m", 70000)}
	if _, err := appendFrame(nil, in.kind, in.id, trace.SpanContext{}, in.method, in.payload); err == nil {
		t.Fatal("oversized method accepted")
	}
}

func TestMalformedFrameRejected(t *testing.T) {
	// Body length smaller than the fixed header must error, not panic.
	bad := []byte{2, 0, 0, 0, 1, 2}
	if _, err := feedParser(bad); err == nil {
		t.Fatal("malformed frame accepted")
	}
}

func BenchmarkRPCRoundTrip(b *testing.B) {
	srv := NewServer(func(req *Request) { req.Reply(req.Payload) }, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	payload := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call("echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRPCPipelined(b *testing.B) {
	srv := NewServer(func(req *Request) { req.Reply(req.Payload) }, nil)
	addr, _ := srv.Start("127.0.0.1:0")
	defer srv.Close()
	c, _ := Dial(addr, nil)
	defer c.Close()
	payload := make([]byte, 128)
	const window = 32
	done := make(chan *Call, window)
	b.ReportAllocs()
	b.ResetTimer()
	inflight := 0
	for i := 0; i < b.N; i++ {
		for inflight >= window {
			call := <-done
			if call.Err != nil {
				b.Fatal(call.Err)
			}
			inflight--
		}
		c.Go("echo", payload, nil, done)
		inflight++
	}
	for inflight > 0 {
		<-done
		inflight--
	}
}
