package rpc

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"musuite/internal/telemetry"
	"musuite/internal/trace"
)

// hardTimeout bounds every wait of the teardown tests: what they guard
// against is a reader waiting on itself, which no amount of patience ends.
const hardTimeout = 10 * time.Second

// within fails the test unless fn returns inside the hard timeout.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(hardTimeout):
		t.Fatalf("%s did not return within %v", what, hardTimeout)
	}
}

// wantBufsReturned waits for the process-wide frame-buffer count to come
// back to (or below) what it was before the test took any.
func wantBufsReturned(t *testing.T, before int64) {
	t.Helper()
	for deadline := time.Now().Add(hardTimeout); BufsInUse() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d frame buffers still held", BufsInUse()-before)
		}
	}
}

// roundTrip is Client.Call for tests that count frame buffers: Call detaches
// the reply from the pool's accounting, Release returns it.
func roundTrip(c *Client, method string, payload []byte) (string, error) {
	call := c.Go(method, payload, nil, nil)
	<-call.Done
	reply, err := string(call.Reply), call.Err
	call.Release()
	return reply, err
}

// testStream encodes a stream that exercises every shape the parser knows:
// traced and untraced requests, responses, empty payloads and one frame
// larger than the read buffer, in an order drawn from rng.
func testStream(rng *rand.Rand) (stream []byte, want []gotFrame) {
	big := make([]byte, readBufSize+1+rng.Intn(readBufSize))
	rng.Read(big)
	sampled := trace.SpanContext{TraceID: rng.Uint64(), SpanID: rng.Uint64(), ParentID: rng.Uint64(), Flags: trace.FlagSampled}
	want = []gotFrame{
		{kind: kindRequest, id: rng.Uint64(), method: "search.knn", payload: []byte("query")},
		{kind: kindRequest, id: rng.Uint64(), method: "search.knn"},
		{kind: kindRequestTraced, id: rng.Uint64(), sc: sampled, method: "get", payload: []byte{0}},
		{kind: kindRequestTraced, id: rng.Uint64(), sc: sampled},
		{kind: kindResponse, id: rng.Uint64(), payload: big},
		{kind: kindResponse, id: rng.Uint64()},
		{kind: kindError, id: rng.Uint64(), payload: []byte("no such method")},
		{kind: kindReject, id: rng.Uint64(), payload: []byte("admission limit")},
	}
	for i := 0; i < 8; i++ {
		small := make([]byte, rng.Intn(300))
		rng.Read(small)
		want = append(want, gotFrame{kind: kindRequest, id: rng.Uint64(), method: "m" + strconv.Itoa(i%3), payload: small})
	}
	rng.Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
	for _, f := range want {
		var err error
		if stream, err = appendFrame(stream, f.kind, f.id, f.sc, f.method, f.payload); err != nil {
			panic(err)
		}
	}
	return stream, want
}

// checkFrames compares what a feed delivered against the encoded frames, and
// each Backlogged flag against its definition.
func checkFrames(t *testing.T, how string, got []gotFrame, err error, want []gotFrame) bool {
	t.Helper()
	if err != nil || len(got) != len(want) {
		t.Errorf("%s: %d of %d frames, err %v", how, len(got), len(want), err)
		return false
	}
	for i := range want {
		if !got[i].sameFrame(want[i]) {
			t.Errorf("%s: frame %d = {kind %d id %d %q %d bytes}, want {kind %d id %d %q %d bytes}", how, i,
				got[i].kind, got[i].id, got[i].method, len(got[i].payload),
				want[i].kind, want[i].id, want[i].method, len(want[i].payload))
			return false
		}
		if got[i].backlogged != got[i].fedBeyond {
			t.Errorf("%s: frame %d Backlogged=%v with input behind it=%v", how, i, got[i].backlogged, got[i].fedBeyond)
			return false
		}
	}
	return true
}

// TestParserResumesAtAnyCut is the resumable parser's property: however the
// reads cut a valid stream, it decodes to the frames that were encoded, and
// a frame is Backlogged exactly when input behind it had already been read.
func TestParserResumesAtAnyCut(t *testing.T) {
	held := BufsInUse()
	stream, want := testStream(rand.New(rand.NewSource(1)))

	whole, err := feedParser(stream)
	checkFrames(t, "whole", whole, err, want)
	bytewise, err := feedParser(stream, everyOffset(len(stream))...)
	checkFrames(t, "one byte per read", bytewise, err, want)
	for _, f := range bytewise {
		if f.backlogged {
			t.Fatal("frame Backlogged although each read ended with it")
		}
	}

	property := func(seed int64, ncuts uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		stream, want := testStream(rng)
		cuts := make([]int, ncuts)
		for i := range cuts {
			cuts[i] = rng.Intn(len(stream) + 1)
		}
		sort.Ints(cuts)
		got, err := feedParser(stream, cuts...)
		return checkFrames(t, "random cuts", got, err, want)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	wantBufsReturned(t, held)
	wantNoReadBufs(t, "after the feeds")
}

// TestParserMalformedEndsCleanly: input that cannot be framed ends the
// stream with an error after the frames before it, wherever the reads cut
// it, and the buffer of the frame it broke in and the read buffer go back.
func TestParserMalformedEndsCleanly(t *testing.T) {
	good, _ := appendFrame(nil, kindRequest, 1, trace.SpanContext{}, "m", []byte("ok"))
	oversize := MaxFrameSize + 1
	for name, bad := range map[string][]byte{
		"length below header": {3, 0, 0, 0, 1, 2, 3},
		"oversize":            {byte(oversize), byte(oversize >> 8), byte(oversize >> 16), byte(oversize >> 24), kindRequest},
		"short traced header": {11, 0, 0, 0, kindRequestTraced, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"method past body":    {12, 0, 0, 0, kindRequest, 9, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0},
	} {
		held := BufsInUse()
		stream := append(append([]byte(nil), good...), bad...)
		for _, cuts := range [][]int{nil, everyOffset(len(stream)), {len(good) + 2}} {
			got, err := feedParser(stream, cuts...)
			if err == nil || len(got) != 1 {
				t.Errorf("%s (cuts %v): %d frames, err %v; want the one good frame and an error", name, len(cuts), len(got), err)
			}
		}
		if now := BufsInUse(); now != held {
			t.Errorf("%s: %d frame buffers not returned", name, now-held)
		}
	}
	if _, err := feedParser([]byte{byte(oversize), byte(oversize >> 8), byte(oversize >> 16), byte(oversize >> 24)}); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversize frame: err %v, want ErrFrameTooLarge", err)
	}
	wantNoReadBufs(t, "after the malformed feeds")
}

// resetConn closes c so that the peer receives a reset, not an orderly
// end-of-stream: its next write fails.
func resetConn(c net.Conn) {
	c.(*net.TCPConn).SetLinger(0)
	c.Close()
}

// TestInlineReplyToResetPeer: a handler running on the poller replies to a
// peer that reset the connection while it ran.  The write fails on the
// poller's own goroutine, which holds the descriptor's read lock for as long
// as it is inside the read callback — tearing the connection down with Close
// from there would wait for itself.
func TestInlineReplyToResetPeer(t *testing.T) {
	held := BufsInUse()
	inHandler, peerGone := make(chan struct{}), make(chan struct{})
	writeFailed := make(chan bool, 1)
	srv := NewServer(func(req *Request) {
		close(inHandler)
		<-peerGone
		// The first write after a reset may still be accepted; the error is
		// certain once the reset has been processed.
		for i := 0; i < 100 && !req.conn.wq.failed(); i++ {
			req.conn.send(kindResponse, 0, make([]byte, 4096))
			time.Sleep(time.Millisecond)
		}
		writeFailed <- req.conn.wq.failed()
		req.Reply(req.Payload)
	}, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peer, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := appendFrame(nil, kindRequest, 1, trace.SpanContext{}, "m", []byte("payload"))
	if _, err := peer.Write(req); err != nil {
		t.Fatal(err)
	}
	<-inHandler
	resetConn(peer)
	close(peerGone)
	within(t, "the handler's reply to a reset peer", func() {
		if !<-writeFailed {
			t.Error("no write failed: the test did not reach the teardown path")
		}
	})
	// The poller, out of its callback, closes the connection itself.
	within(t, "the poller's exit", func() {
		for {
			srv.mu.Lock()
			n := len(srv.conns)
			srv.mu.Unlock()
			if n == 0 {
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
	within(t, "Server.Close", func() { srv.Close() })
	wantBufsReturned(t, held)
}

// TestHookSendsOnDeadConn: an OnResponse hook — which runs on the client's
// reader — issues a follow-up call (a hedge, a retry) on the connection whose
// peer has gone.  The write error is raised on the reader's own goroutine and
// must end the connection without the reader waiting for itself; the
// follow-up fails like any call on a dead connection.
func TestHookSendsOnDeadConn(t *testing.T) {
	held := BufsInUse()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	inHook, peerGone := make(chan struct{}), make(chan struct{})
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		hdr := make([]byte, 4)
		readFull(conn, hdr)
		body := make([]byte, int(hdr[0])|int(hdr[1])<<8)
		readFull(conn, body)
		resp, _ := appendFrame(nil, kindResponse, 1, trace.SpanContext{}, "", []byte("first"))
		conn.Write(resp)
		<-inHook
		resetConn(conn)
		close(peerGone)
	}()

	followUp := make(chan *Call, 1)
	var c *Client
	first := true
	c, err = Dial(lis.Addr().String(), &ClientOptions{OnResponse: func(call *Call) bool {
		if !first {
			return false
		}
		first = false
		close(inHook)
		<-peerGone
		// As above: keep sending until the reset has surfaced as a write
		// error on this goroutine.
		for i := 0; i < 100 && !c.wq.failed(); i++ {
			c.Go("again", make([]byte, 4096), nil, make(chan *Call, 1))
			time.Sleep(time.Millisecond)
		}
		c.Go("again", nil, nil, followUp)
		return false
	}})
	if err != nil {
		t.Fatal(err)
	}
	within(t, "the first call", func() {
		if reply, err := roundTrip(c, "m", []byte("x")); err != nil || reply != "first" {
			t.Errorf("first call: %q %v", reply, err)
		}
	})
	within(t, "the follow-up call", func() {
		if call := <-followUp; call.Err == nil {
			t.Error("follow-up on a reset connection succeeded")
		}
	})
	if !c.wq.failed() {
		t.Error("no write failed: the test did not reach the teardown path")
	}
	within(t, "Client.Close", func() { c.Close() })
	if !c.Closed() {
		t.Error("client not closed")
	}
	wantBufsReturned(t, held)
}

// TestCloseWhileParkedAndWhileInline: Close from another goroutine returns
// both when the readers are parked on the netpoller and when one is inside
// an in-line handler (server) or response hook (client) — there it waits for
// the handler, which must be able to finish.
func TestCloseWhileParkedAndWhileInline(t *testing.T) {
	held := BufsInUse()
	t.Run("parked", func(t *testing.T) {
		srv, addr := echoServer(t, nil)
		c, err := Dial(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := roundTrip(c, "echo", []byte("x")); err != nil {
			t.Fatal(err)
		}
		within(t, "Client.Close with a parked reader", func() { c.Close() })
		c2, err := Dial(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer c2.Close()
		if _, err := roundTrip(c2, "echo", []byte("x")); err != nil {
			t.Fatal(err)
		}
		within(t, "Server.Close with a parked poller", func() { srv.Close() })
		within(t, "the client's reader noticing", func() {
			for !c2.Closed() {
				time.Sleep(time.Millisecond)
			}
		})
	})
	t.Run("server in-line handler", func(t *testing.T) {
		inHandler, release := make(chan struct{}), make(chan struct{})
		srv := NewServer(func(req *Request) {
			close(inHandler)
			<-release
			req.Reply(req.Payload)
		}, nil)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c, err := Dial(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		call := c.Go("m", []byte("x"), nil, nil)
		<-inHandler
		closed := make(chan struct{})
		go func() {
			srv.Close()
			close(closed)
		}()
		select {
		case <-closed:
			t.Fatal("Server.Close returned while a handler was still running")
		case <-time.After(20 * time.Millisecond):
		}
		close(release)
		within(t, "Server.Close during an in-line handler", func() { <-closed })
		within(t, "the pending call", func() { (<-call.Done).Release() })
	})
	t.Run("client hook", func(t *testing.T) {
		_, addr := echoServer(t, nil)
		inHook, release := make(chan struct{}), make(chan struct{})
		c, err := Dial(addr, &ClientOptions{OnResponse: func(*Call) bool {
			close(inHook)
			<-release
			return false
		}})
		if err != nil {
			t.Fatal(err)
		}
		call := c.Go("echo", []byte("x"), nil, nil)
		<-inHook
		closed := make(chan struct{})
		go func() {
			c.Close()
			close(closed)
		}()
		time.Sleep(20 * time.Millisecond)
		close(release)
		within(t, "Client.Close during a response hook", func() { <-closed })
		within(t, "the call's delivery", func() {
			if got := <-call.Done; got.Err != nil || string(got.Reply) != "x" {
				t.Errorf("call completed with %q %v", got.Reply, got.Err)
			}
		})
		call.Release()
	})
	wantBufsReturned(t, held)
}

// TestReaderFindsEOFBehindShortRead: a peer that answers and closes in one
// breath can have its end-of-stream reported in the same readiness edge as
// the answer; the read that takes the answer comes back short and the reader
// parks with nothing left to wake it.  A call still pending must fail within
// the reader's EOF check interval instead of hanging.
func TestReaderFindsEOFBehindShortRead(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		// Two requests arrive; only the first is answered.
		buf := make([]byte, 2*(frameHeaderLen+1))
		readFull(conn, buf)
		resp, _ := appendFrame(nil, kindResponse, 1, trace.SpanContext{}, "", []byte("only"))
		conn.Write(resp)
		conn.Close()
	}()
	c, err := Dial(lis.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan *Call, 2)
	c.Go("m", nil, nil, done)
	c.Go("m", nil, nil, done)
	within(t, "both calls", func() {
		var failed int
		for i := 0; i < 2; i++ {
			if call := <-done; call.Err != nil {
				failed++
			} else if !bytes.Equal(call.Reply, []byte("only")) {
				t.Errorf("reply %q", call.Reply)
			}
		}
		if failed != 1 {
			t.Errorf("%d calls failed, want the unanswered one", failed)
		}
	})
}

// kernelIO returns the read and write system calls this process has made
// (syscr + syscw of /proc/self/io).
func kernelIO(t *testing.T) uint64 {
	t.Helper()
	raw, err := os.ReadFile("/proc/self/io")
	if err != nil {
		t.Skipf("no per-process I/O accounting: %v", err)
	}
	var total uint64
	for _, key := range []string{"syscr: ", "syscw: "} {
		i := bytes.Index(raw, []byte(key))
		if i < 0 {
			t.Skipf("/proc/self/io has no %q", key)
		}
		rest := raw[i+len(key):]
		n, err := strconv.ParseUint(string(rest[:bytes.IndexByte(rest, '\n')]), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	return total
}

// TestSyscallProxiesMatchKernel holds the sendmsg/recvmsg proxies to the
// kernel's own count and the count to its floor: a sequential round trip is
// two messages, each one write and one read, and nothing else — in
// particular no read issued only to be told EAGAIN before parking.  A count,
// not a timing: it runs under -short.
func TestSyscallProxiesMatchKernel(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("needs /proc/self/io")
	}
	probe := telemetry.NewProbe()
	_, addr := echoServer(t, probe)
	c, err := Dial(addr, &ClientOptions{Probe: probe})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	call := func() {
		if _, err := c.Call("echo", []byte("ping")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		call()
	}
	const calls = 1000
	kernelBefore, before := kernelIO(t), probe.Snapshot()
	for i := 0; i < calls; i++ {
		call()
	}
	kernel := float64(kernelIO(t) - kernelBefore)
	d := probe.Snapshot().Delta(before)
	proxies := float64(d[telemetry.SysSendmsg] + d[telemetry.SysRecvmsg])
	t.Logf("per call: kernel %.3f read+write, proxies %.3f (sendmsg %d, recvmsg %d, epoll_pwait %d over %d calls)",
		kernel/calls, proxies/calls, d[telemetry.SysSendmsg], d[telemetry.SysRecvmsg], d[telemetry.SysEpollPwait], calls)
	if diff := (proxies - kernel) / kernel; diff < -0.02 || diff > 0.02 {
		t.Errorf("proxies count %.0f read+write syscalls, the kernel %.0f: off by %+.1f%%, want within 2%%", proxies, kernel, 100*diff)
	}
	if kernel/calls > 4.2 {
		t.Errorf("%.2f read+write syscalls per call, want ≤ 4.2 (2 messages × (1 write + 1 read))", kernel/calls)
	}
}
