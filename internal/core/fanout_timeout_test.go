package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"musuite/internal/rpc"
)

// blackholeLeaf accepts requests and never replies.
func blackholeLeaf(t *testing.T) string {
	t.Helper()
	srv := rpc.NewServer(func(req *rpc.Request) {
		// Swallow the request forever.
	}, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

// TestFanoutTimeoutUnwedgesHungLeaf: with one responsive and one silent
// leaf, a configured FanoutTimeout must complete the request with the
// timeout error instead of hanging forever.
func TestFanoutTimeoutUnwedgesHungLeaf(t *testing.T) {
	goodAddr, _ := startLeaf(t, nil)
	deadAddr := blackholeLeaf(t)

	mt := NewMidTier(func(ctx *Ctx) {
		ctx.FanoutAll("echo", nil, func(results []LeafResult) {
			for _, r := range results {
				if r.Err != nil {
					ctx.ReplyError(r.Err)
					return
				}
			}
			ctx.Reply([]byte("all-ok"))
		})
	}, &Options{EdgePolicy: EdgePolicy{Timeout: 150 * time.Millisecond}})
	if err := mt.ConnectLeaves([]string{goodAddr, deadAddr}); err != nil {
		t.Fatal(err)
	}
	addr, err := mt.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mt.Close)

	c, err := rpc.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	_, err = c.CallTimeout("q", nil, 10*time.Second)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("request against a hung leaf succeeded")
	}
	if !strings.Contains(err.Error(), ErrFanoutTimeout.Error()) {
		t.Fatalf("err=%v want fan-out timeout", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("timed out after %v — FanoutTimeout not applied", elapsed)
	}
}

// TestFanoutTimeoutDoesNotAffectFastLeaves: responsive deployments behave
// identically with a generous timeout armed.
func TestFanoutTimeoutDoesNotAffectFastLeaves(t *testing.T) {
	leafAddrs := make([]string, 2)
	for i := range leafAddrs {
		leafAddrs[i], _ = startLeaf(t, nil)
	}
	opts := Options{EdgePolicy: EdgePolicy{Timeout: 5 * time.Second}}
	addr, _ := startMidTier(t, leafAddrs, &opts)
	c, err := rpc.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 30; i++ {
		reply, err := c.Call("sum", []byte("2"))
		if err != nil || string(reply) != "8" {
			t.Fatalf("call %d: %q %v", i, reply, err)
		}
	}
}

// TestFanoutTimeoutRaceWithLateResponse: a leaf that responds just around
// the deadline must not double-complete a slot (exactly-once delivery).
func TestFanoutTimeoutRaceWithLateResponse(t *testing.T) {
	// Leaf whose latency straddles the timeout.
	leaf := NewLeaf(func(method string, payload []byte) ([]byte, error) {
		time.Sleep(20 * time.Millisecond)
		return payload, nil
	}, nil)
	leafAddr, err := leaf.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(leaf.Close)

	mt := NewMidTier(func(ctx *Ctx) {
		ctx.FanoutAll("echo", nil, func(results []LeafResult) {
			if results[0].Err != nil {
				ctx.ReplyError(results[0].Err)
				return
			}
			ctx.Reply(nil)
		})
	}, &Options{EdgePolicy: EdgePolicy{Timeout: 20 * time.Millisecond}})
	if err := mt.ConnectLeaves([]string{leafAddr}); err != nil {
		t.Fatal(err)
	}
	addr, err := mt.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mt.Close)

	c, err := rpc.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Every call resolves exactly once, win or lose the race.
	for i := 0; i < 40; i++ {
		_, err := c.CallTimeout("q", nil, 10*time.Second)
		if err != nil && !strings.Contains(err.Error(), ErrFanoutTimeout.Error()) {
			t.Fatalf("call %d: unexpected error %v", i, err)
		}
	}
}

func TestErrFanoutTimeoutSentinel(t *testing.T) {
	if !errors.Is(ErrFanoutTimeout, ErrFanoutTimeout) {
		t.Fatal("sentinel identity broken")
	}
}
