package rpc

import (
	"bytes"
	"testing"
	"time"
)

func TestServerStartBadAddress(t *testing.T) {
	srv := NewServer(func(req *Request) {}, nil)
	if _, err := srv.Start("256.0.0.1:99999"); err == nil {
		t.Fatal("bogus address accepted")
	}
	srv.Close()
}

func TestServerStartAfterClose(t *testing.T) {
	srv := NewServer(func(req *Request) {}, nil)
	srv.Close()
	if _, err := srv.Start("127.0.0.1:0"); err == nil {
		t.Fatal("Start after Close succeeded")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv := NewServer(func(req *Request) { req.Reply(nil) }, nil)
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestClientAddrAndClosed(t *testing.T) {
	srv := NewServer(func(req *Request) { req.Reply(nil) }, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.conn.RemoteAddr().String(); got != addr {
		t.Fatalf("addr=%q, want %q", got, addr)
	}
	if c.Closed() {
		t.Fatal("fresh client reports closed")
	}
	c.Close()
	if !c.Closed() {
		t.Fatal("closed client reports open")
	}
	// Close is idempotent.
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestRequestDoubleReplyIgnored(t *testing.T) {
	srv := NewServer(func(req *Request) {
		req.Reply([]byte("first"))
		req.Reply([]byte("second"))      // ignored
		req.ReplyError(ErrFrameTooLarge) // ignored
	}, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reply, err := c.Call("m", nil)
	if err != nil || string(reply) != "first" {
		t.Fatalf("%q %v", reply, err)
	}
	// The connection is healthy afterwards.
	if _, err := c.Call("m", nil); err != nil {
		t.Fatal(err)
	}
}

// TestClientCallReleasesReplyBuf: a synchronous Call hands the caller its own
// exact-size copy of the reply — nil for an empty one — and the buffer the
// frame was read into goes back to its pool with the call, so a thousand
// calls leave the count of frame buffers in use where it was.
func TestClientCallReleasesReplyBuf(t *testing.T) {
	srv := NewServer(func(req *Request) {
		if req.Method == "empty" {
			req.Reply(nil)
			return
		}
		req.Reply(req.Payload)
	}, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	payload := bytes.Repeat([]byte("r"), 300)
	before := BufsInUse()
	for i := 0; i < 1000; i++ {
		reply, err := c.Call("echo", payload)
		if err != nil || !bytes.Equal(reply, payload) || cap(reply) != len(reply) {
			t.Fatalf("call %d: %d bytes (cap %d), err %v", i, len(reply), cap(reply), err)
		}
		if reply, err = c.CallTimeout("empty", payload, 10*time.Second); err != nil || reply != nil {
			t.Fatalf("call %d: an empty reply came back as %#v, err %v; want nil", i, reply, err)
		}
	}
	// The server releases a request's buffer just after queueing the reply
	// the client has already consumed: give its poller a moment.
	deadline := time.Now().Add(2 * time.Second)
	for BufsInUse() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := BufsInUse(); got > before {
		t.Fatalf("%d frame buffers in use after 2000 synchronous calls, %d before them", got, before)
	}
}
