package rpc

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"musuite/internal/telemetry"
	"musuite/internal/trace"
)

// TestMain holds the package to the read-buffer rule as a whole: once every
// test has run, no reader — parked, leaked or gone — holds a read buffer.
func TestMain(m *testing.M) {
	code := m.Run()
	deadline := time.Now().Add(hardTimeout)
	for ReadBufsInUse() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := ReadBufsInUse(); n != 0 && code == 0 {
		fmt.Fprintf(os.Stderr, "%d read buffers still borrowed after the tests\n", n)
		code = 1
	}
	os.Exit(code)
}

// readBufsMade reports how many read buffers the process has allocated.
func readBufsMade() int64 {
	return readBufs.made.Load()
}

// wantNoReadBufs waits for every reader to have returned its read buffer.  A
// reader borrows one for each read, so the count is zero whenever no reader
// is between a read and its cut: the wait only rides out such moments.
func wantNoReadBufs(t *testing.T, what string) {
	t.Helper()
	for deadline := time.Now().Add(hardTimeout); ReadBufsInUse() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d read buffers still borrowed", what, ReadBufsInUse())
		}
	}
}

// TestPrefixSplitAcrossPark: a read that ends one to three bytes into a
// length prefix — alone, or behind a whole frame — leaves the reader parked
// with the read buffer returned and those bytes carried; the rest of the
// frame, sent after the park, completes it intact.
func TestPrefixSplitAcrossPark(t *testing.T) {
	probe := telemetry.NewProbe()
	_, addr := echoServer(t, probe)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(hardTimeout))
	// readReply reads one response frame off the raw connection.
	readReply := func() (uint64, []byte) {
		hdr := make([]byte, 4)
		if _, err := readFull(conn, hdr); err != nil {
			t.Fatal(err)
		}
		body := make([]byte, int(hdr[0])|int(hdr[1])<<8|int(hdr[2])<<16|int(hdr[3])<<24)
		if _, err := readFull(conn, body); err != nil {
			t.Fatal(err)
		}
		f := frame{buf: &Buf{b: body}}
		if err := f.decode(); err != nil || f.kind != kindResponse {
			t.Fatalf("reply kind %d, err %v", f.kind, err)
		}
		return f.id, f.payload
	}
	var id uint64
	for _, behind := range []bool{false, true} {
		for split := 1; split <= 3; split++ {
			id++
			var lead []byte
			if behind {
				lead, _ = appendFrame(nil, kindRequest, 1000+id, trace.SpanContext{}, "echo", []byte("ahead"))
			}
			payload := bytes.Repeat([]byte{byte(id)}, 100+int(id))
			f, _ := appendFrame(nil, kindRequest, id, trace.SpanContext{}, "echo", payload)
			parks := probe.Snapshot()[telemetry.SysEpollPwait]
			if _, err := conn.Write(append(lead, f[:split]...)); err != nil {
				t.Fatal(err)
			}
			if behind {
				if gotID, got := readReply(); gotID != 1000+id || string(got) != "ahead" {
					t.Fatalf("frame ahead of the split: id %d %q", gotID, got)
				}
			}
			// The poller has read the split bytes once it parks again.
			for deadline := time.Now().Add(hardTimeout); probe.Snapshot()[telemetry.SysEpollPwait] == parks; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the poller never parked after the split prefix")
				}
			}
			wantNoReadBufs(t, fmt.Sprintf("parked on %d prefix bytes", split))
			if _, err := conn.Write(f[split:]); err != nil {
				t.Fatal(err)
			}
			if gotID, got := readReply(); gotID != id || !bytes.Equal(got, payload) {
				t.Fatalf("split after %d prefix bytes (behind a frame: %v): reply id %d, %d bytes; want id %d, %d bytes",
					split, behind, gotID, len(got), id, len(payload))
			}
		}
	}
}

// TestIdleConnectionsHoldNoReadBuffer: sixteen connections that have each
// made a round trip, and whose 32 readers are now parked, hold no read
// buffer between them; the readers shared fewer buffers than there are
// readers.
func TestIdleConnectionsHoldNoReadBuffer(t *testing.T) {
	held := BufsInUse()
	made := readBufsMade()
	_, addr := echoServer(t, nil)
	clients := make([]*Client, 16)
	for i := range clients {
		c, err := Dial(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	for i, c := range clients {
		if reply, err := roundTrip(c, "echo", []byte{byte(i)}); err != nil || reply != string([]byte{byte(i)}) {
			t.Fatalf("client %d: %q %v", i, reply, err)
		}
	}
	wantNoReadBufs(t, "16 idle connections")
	if n := readBufsMade() - made; n >= 2*int64(len(clients)) {
		t.Errorf("%d read buffers allocated for %d readers, want fewer than one each", n, 2*len(clients))
	}
	wantBufsReturned(t, held)
}

// TestDeliveryHoldsNoReadBuffer: a server handler and a client response hook
// that block on the reader's goroutine hold no read buffer while they block,
// and neither does the peer waiting on them.
func TestDeliveryHoldsNoReadBuffer(t *testing.T) {
	inHandler, releaseHandler := make(chan struct{}), make(chan struct{})
	srv := NewServer(func(req *Request) {
		if req.Method == "hold" {
			inHandler <- struct{}{}
			<-releaseHandler
		}
		req.Reply(req.Payload)
	}, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	inHook, releaseHook := make(chan struct{}), make(chan struct{})
	c, err := Dial(addr, &ClientOptions{OnResponse: func(call *Call) bool {
		if string(call.Reply) == "hold" {
			inHook <- struct{}{}
			<-releaseHook
		}
		return false
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Deferred after the Closes, so they run first: a failed wait must not
	// leave Close waiting on a held handler or hook.
	defer close(releaseHook)
	defer close(releaseHandler)

	call := c.Go("hold", []byte("x"), nil, nil)
	<-inHandler
	wantNoReadBufs(t, "a server handler blocked on its poller")
	releaseHandler <- struct{}{}
	(<-call.Done).Release()

	call = c.Go("echo", []byte("hold"), nil, nil)
	<-inHook
	wantNoReadBufs(t, "a response hook blocked on the client's reader")
	releaseHook <- struct{}{}
	(<-call.Done).Release()
}

// TestSteadyStateAllocatesNoReadBuffer: 10 000 pipelined round trips over 16
// connections, served by a handler that blocks for 200 µs on its poller (so
// requests queue and reads carry several frames), allocate no read buffer
// once warm — not even after a collection, which would empty a sync.Pool.
func TestSteadyStateAllocatesNoReadBuffer(t *testing.T) {
	srv := NewServer(func(req *Request) {
		time.Sleep(200 * time.Microsecond)
		req.Reply(req.Payload)
	}, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const conns, window = 16, 4
	clients := make([]*Client, conns)
	for i := range clients {
		if clients[i], err = Dial(addr, nil); err != nil {
			t.Fatal(err)
		}
		defer clients[i].Close()
	}
	// run makes total round trips, spread over the connections, with
	// window calls in flight on each.
	run := func(total int) {
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *Client) {
				defer wg.Done()
				done := make(chan *Call, window)
				payload := []byte("pipelined")
				issued := 0
				for ; issued < window; issued++ {
					c.Go("m", payload, nil, done)
				}
				for completed := 0; completed < total/conns; completed++ {
					call := <-done
					if call.Err != nil || !bytes.Equal(call.Reply, payload) {
						t.Errorf("reply %q, err %v", call.Reply, call.Err)
					}
					call.Release()
					if issued < total/conns {
						c.Go("m", payload, nil, done)
						issued++
					}
				}
			}(c)
		}
		wg.Wait()
	}
	run(2000)
	runtime.GC()
	made := readBufsMade()
	run(10000)
	if n := readBufsMade() - made; n != 0 {
		t.Errorf("%d read buffers allocated in steady state, want 0", n)
	}
	t.Logf("%d read buffers allocated by this process", readBufsMade())
	wantNoReadBufs(t, "after the round trips")
}

// TestReaderReturnsBufferOnEveryExit: however a reader's loop ends — the
// peer's end-of-stream (between frames or inside one), a read error, a
// malformed frame, a local close while parked or while a hook runs — the
// reader has returned its read buffer and every frame buffer it held.
func TestReaderReturnsBufferOnEveryExit(t *testing.T) {
	// peerClient dials a raw listener whose accepted end peer runs, makes
	// one call that fails, and returns once the client's reader has ended.
	peerClient := func(t *testing.T, peer func(conn net.Conn)) {
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
			hdr := make([]byte, frameHeaderLen+1)
			readFull(conn, hdr) // the client's one call
			peer(conn)
		}()
		c, err := Dial(lis.Addr().String(), nil)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan *Call, 1)
		c.Go("m", nil, nil, done)
		within(t, "the call's failure", func() {
			if call := <-done; call.Err == nil {
				t.Error("the call succeeded")
			}
		})
		within(t, "the reader's exit", func() { <-c.readerDone })
		c.Close()
	}
	resp, _ := appendFrame(nil, kindResponse, 1, trace.SpanContext{}, "", bytes.Repeat([]byte("r"), 1000))
	for name, peer := range map[string]func(conn net.Conn){
		"eof":            func(conn net.Conn) { conn.Close() },
		"eof mid-prefix": func(conn net.Conn) { conn.Write(resp[:2]); conn.Close() },
		"eof mid-body":   func(conn net.Conn) { conn.Write(resp[:500]); conn.Close() },
		"read error":     func(conn net.Conn) { conn.Write(resp[:500]); resetConn(conn) },
		"malformed": func(conn net.Conn) {
			conn.Write([]byte{3, 0, 0, 0, 1, 2, 3})
			io.Copy(io.Discard, conn) // until the client hangs up
			conn.Close()
		},
	} {
		t.Run(name, func(t *testing.T) {
			held := BufsInUse()
			peerClient(t, peer)
			wantNoReadBufs(t, name)
			wantBufsReturned(t, held)
		})
	}
	t.Run("close while parked", func(t *testing.T) {
		held := BufsInUse()
		_, addr := echoServer(t, nil)
		c, err := Dial(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := roundTrip(c, "echo", []byte("x")); err != nil {
			t.Fatal(err)
		}
		within(t, "Client.Close", func() { c.Close() })
		wantNoReadBufs(t, "closed while parked")
		wantBufsReturned(t, held)
	})
	t.Run("close during a hook", func(t *testing.T) {
		held := BufsInUse()
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
		close(release)
		within(t, "Client.Close during a hook", func() { <-closed })
		(<-call.Done).Release()
		wantNoReadBufs(t, "closed during a hook")
		wantBufsReturned(t, held)
	})
}
