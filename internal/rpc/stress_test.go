package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"musuite/internal/trace"
)

// TestAbandonRecycleRaceStress drives the hedge-pair life cycle hard from
// many goroutines: two racing calls per iteration, the loser abandoned by
// ref while the reader may be completing it and the consumer recycling it,
// plus stale abandons against already-released winners.  Run under -race
// this exercises the generation-counter discipline that keeps a late cancel
// from touching a recycled Call's next occupant.
func TestAbandonRecycleRaceStress(t *testing.T) {
	srv := NewServer(func(req *Request) { req.Reply(req.Payload) }, nil)
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

	const workers = 8
	iters := 300
	if testing.Short() {
		iters = 50
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			payload := []byte("hedge-stress")
			for i := 0; i < iters; i++ {
				done := make(chan *Call, 2)
				ref1 := c.GoRefSpan("echo", payload, trace.SpanContext{}, nil, done)
				ref2 := c.GoRefSpan("echo", payload, trace.SpanContext{}, nil, done)
				winner := <-done
				winnerRef := winner.Ref()
				loser := ref1
				if winnerRef == ref1 {
					loser = ref2
				}
				// Cancel the loser the way the fan-out cancels a hedge
				// pair — racing its completion and recycling.
				c.AbandonRef(loser)
				if winner.Err != nil {
					t.Error(winner.Err)
					winner.Release()
					return
				}
				if !bytes.Equal(winner.Reply, payload) {
					t.Errorf("reply %q, want %q", winner.Reply, payload)
				}
				winner.Release()
				if rng.Intn(2) == 0 {
					// A stale abandon against the released winner must be
					// a no-op for the struct's next occupant.
					c.AbandonRef(winnerRef)
				}
				// If the loser's response outran the abandon it was
				// delivered; recycle it too.
				select {
				case late := <-done:
					late.Release()
				default:
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// TestCallReplySurvivesPoolReuse is the testing/quick property behind the
// synchronous Call's contract: the reply it returns is the caller's own copy,
// intact no matter how the pool recycles the frame buffer it was read into
// for later traffic.
func TestCallReplySurvivesPoolReuse(t *testing.T) {
	srv := NewServer(func(req *Request) { req.Reply(req.Payload) }, nil)
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

	prop := func(payload []byte, churn uint8) bool {
		if len(payload) > 1<<16 {
			payload = payload[:1<<16]
		}
		reply, err := c.Call("echo", payload)
		if err != nil {
			return false
		}
		// Churn the pools: later calls re-grab the released call struct
		// and its buffer, which the reply must not alias.
		filler := bytes.Repeat([]byte{0xA5}, len(payload)+1)
		for i := 0; i < int(churn%8)+1; i++ {
			if _, err := c.Call("echo", filler); err != nil {
				return false
			}
		}
		return bytes.Equal(reply, payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBufPoolNoAliasProperty checks the reference-count invariant directly:
// as long as a reader of a pooled Buf holds a reference, a producer-side
// Release must not let a fresh grab of the same size class alias the bytes.
func TestBufPoolNoAliasProperty(t *testing.T) {
	prop := func(n uint16) bool {
		size := int(n%4096) + 1
		held := grabBuf(size)
		for i := range held.bytes() {
			held.bytes()[i] = 1
		}
		view := held.bytes() // the "live decode" into the buffer
		held.Retain()
		held.Release() // producer done; reader's reference still live
		fresh := grabBuf(size)
		for i := range fresh.bytes() {
			fresh.bytes()[i] = 2
		}
		ok := true
		for _, x := range view {
			if x != 1 {
				ok = false
			}
		}
		fresh.Release()
		held.Release()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// startRawEchoServer runs a minimal allocation-free echo peer, so the
// steady-state allocation measurement below isolates the client's own
// send/receive path from server-side handler costs.
func startRawEchoServer(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				// Untraced request frames parsed in place, into one reused
				// body: the rpc reader draws a pooled buffer per frame, and
				// under -race sync.Pool drops some of what it is handed.
				br := bufio.NewReaderSize(conn, 64<<10)
				var body, out []byte
				hdr := make([]byte, 4)
				for {
					if _, err := io.ReadFull(br, hdr); err != nil {
						return
					}
					n := int(binary.LittleEndian.Uint32(hdr))
					body = slices.Grow(body[:0], n)[:n]
					if _, err := io.ReadFull(br, body); err != nil {
						return
					}
					id := binary.LittleEndian.Uint64(body[1:9])
					payload := body[11+int(binary.LittleEndian.Uint16(body[9:11])):]
					var werr error
					out, werr = appendFrame(out[:0], kindResponse, id, trace.SpanContext{}, "", payload)
					if werr != nil {
						return
					}
					if _, err := conn.Write(out); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return lis.Addr().String()
}

// TestClientSteadyStateAllocFree pins the tentpole claim: a warmed client's
// complete send/receive round trip — pooled Call, pending-table insert and
// claim, coalesced write, pooled reply buffer, Done delivery, Release —
// allocates nothing.
func TestClientSteadyStateAllocFree(t *testing.T) {
	addr := startRawEchoServer(t)
	c, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	payload := []byte("steady-state-payload")
	done := make(chan *Call, 1)
	roundTrip := func() {
		call := c.Go("m", payload, nil, done)
		got := <-done
		if got != call || got.Err != nil {
			t.Fatalf("call failed: %v", got.Err)
		}
		got.Release()
	}
	for i := 0; i < 200; i++ {
		roundTrip() // warm the call, buffer, and frame pools
	}
	if avg := testing.AllocsPerRun(300, roundTrip); avg > 0.5 {
		t.Fatalf("client round trip allocates %.2f objects/op in steady state; want 0", avg)
	}
}
