package rpc

import (
	"errors"
	"fmt"
	"io"
	"testing"
	"time"
)

func TestAbandonDropsResponse(t *testing.T) {
	_, addr := echoServer(t, nil)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	done := make(chan *Call, 1)
	call := c.Go("slow", []byte("late"), nil, done)
	if got := c.Pending(); got != 1 {
		t.Fatalf("pending=%d before abandon, want 1", got)
	}
	c.Abandon(call)
	// The server is still working on it: the load probe keeps counting the
	// call until its response has come and gone.
	if got := c.Pending(); got != 1 {
		t.Fatalf("pending=%d after abandon, want 1 until the server answers", got)
	}

	// The server replies after 50ms; the late response must be discarded,
	// not delivered or crash the read loop.
	select {
	case <-done:
		t.Fatal("abandoned call was delivered")
	case <-time.After(120 * time.Millisecond):
	}
	if got := c.Pending(); got != 0 {
		t.Fatalf("pending=%d after the late response, want 0", got)
	}

	// The connection remains usable after discarding the late frame.
	reply, err := c.Call("echo", []byte("still alive"))
	if err != nil || string(reply) != "still alive" {
		t.Fatalf("post-abandon call: reply=%q err=%v", reply, err)
	}
}

func TestFinishDropsCancelledCall(t *testing.T) {
	// A cancelled call must be dropped by finish, not delivered.
	call := &Call{Done: make(chan *Call, 1)}
	call.cancelAt(call.gen.Load())
	call.finish()
	select {
	case <-call.Done:
		t.Fatal("cancelled call delivered")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestStaleCancelDoesNotStick(t *testing.T) {
	// A cancel aimed at generation g must not affect the call once it has
	// been recycled into generation g+1 (a late Abandon via a stale ref).
	call := getCall()
	gen := call.gen.Load()
	call.Release()
	call.cancelAt(gen) // stale: references the released generation
	if reused := getCall(); reused == call {
		if reused.isCancelled() {
			t.Fatal("stale cancel marker cancelled the recycled call")
		}
		reused.Release()
	}
}

func TestGoPanicsOnUnbufferedDone(t *testing.T) {
	_, addr := echoServer(t, nil)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Go accepted an unbuffered done channel")
		}
	}()
	c.Go("echo", []byte("x"), nil, make(chan *Call))
}

func TestFinishDeliversLiveCall(t *testing.T) {
	call := &Call{Done: make(chan *Call, 1)}
	call.finish()
	select {
	case got := <-call.Done:
		if got != call {
			t.Fatal("wrong call delivered")
		}
	default:
		t.Fatal("live call not delivered on buffered channel")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want ErrClass
	}{
		{&RemoteError{Msg: "leaf failure"}, ClassApplication},
		{fmt.Errorf("wrapped: %w", &RemoteError{Msg: "x"}), ClassApplication},
		{ErrTimeout, ClassTimeout},
		{fmt.Errorf("call: %w", ErrTimeout), ClassTimeout},
		{ErrClientClosed, ClassConnection},
		{io.EOF, ClassConnection},
		{errors.New("dial tcp: connection refused"), ClassConnection},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}

	if Retryable(nil) {
		t.Error("nil error must not be retryable")
	}
	if Retryable(&RemoteError{Msg: "x"}) {
		t.Error("application errors must not be retryable: the server already executed the request")
	}
	if !Retryable(ErrTimeout) {
		t.Error("timeouts must be retryable")
	}
	if !Retryable(io.EOF) {
		t.Error("connection errors must be retryable")
	}
}

func TestRemoteErrorUnwrapsOverWire(t *testing.T) {
	_, addr := echoServer(t, nil)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call("fail", nil)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("server-side failure did not surface as *RemoteError: %v", err)
	}
	if remote.Msg != "intentional failure" {
		t.Fatalf("Msg=%q", remote.Msg)
	}
	if Classify(err) != ClassApplication {
		t.Fatalf("wire remote error classified %v, want application", Classify(err))
	}
}
