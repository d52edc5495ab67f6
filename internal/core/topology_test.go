package core

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"musuite/internal/rpc"
)

// startPinCheckMidTier wires a mid-tier whose "pincheck" handler reads the
// leaf count, does real leaf work, and reads it again — the two reads must
// agree no matter how the topology churns, because the request pinned one
// snapshot at arrival.
func startPinCheckMidTier(t *testing.T, leafAddrs []string) (string, *MidTier) {
	t.Helper()
	mt := NewMidTier(func(ctx *Ctx) {
		switch ctx.Req.Method {
		case "pincheck":
			before := ctx.NumLeaves()
			// Hit the highest shard — the one an in-flight drain targets.
			ctx.Fanout([]LeafCall{{Shard: before - 1, Method: "echo", Payload: ctx.Req.Payload}}, func(results []LeafResult) {
				if err := results[0].Err; err != nil {
					ctx.ReplyError(err)
					return
				}
				after := ctx.NumLeaves()
				if before != after {
					ctx.ReplyError(fmt.Errorf("leaf count changed mid-request: %d then %d", before, after))
					return
				}
				ctx.Reply([]byte(strconv.Itoa(after)))
			})
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
		default:
			ctx.ReplyError(fmt.Errorf("unknown method %q", ctx.Req.Method))
		}
	}, nil)
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

// TestSnapshotPinnedAcrossEpochBump drives pincheck requests while leaf
// groups are added and drained underneath them.  A request that straddles an
// epoch bump must never see NumLeaves disagree with itself mid-flight (its
// snapshot is pinned at arrival), and its leaf calls must succeed even when
// they land on the group being drained.  Run under -race this also proves
// the hot path's snapshot reads are properly synchronized with publishes.
func TestSnapshotPinnedAcrossEpochBump(t *testing.T) {
	leafAddrs := make([]string, 2)
	for i := range leafAddrs {
		leafAddrs[i], _ = startLeaf(t, nil)
	}
	spare, _ := startLeaf(t, nil)
	addr, mt := startPinCheckMidTier(t, leafAddrs)
	c, err := rpc.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	stop := make(chan struct{})
	var churnErr error
	var churns int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			shard, err := mt.AddLeafGroup([]string{spare})
			if err != nil {
				churnErr = fmt.Errorf("add: %w", err)
				return
			}
			if err := mt.DrainLeafGroup(shard, 10*time.Second); err != nil {
				churnErr = fmt.Errorf("drain: %w", err)
				return
			}
			churns++
		}
	}()

	var clients sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for i := 0; i < 100; i++ {
				if _, err := c.Call("pincheck", []byte("x")); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	clients.Wait()
	close(stop)
	wg.Wait()
	close(errs)

	for err := range errs {
		t.Fatal(err)
	}
	if churnErr != nil {
		t.Fatal(churnErr)
	}
	if churns == 0 {
		t.Fatal("no topology churn happened during the test")
	}
	st := mt.Stats()
	if st.TopoAdds == 0 || st.TopoDrains == 0 {
		t.Fatalf("stats show no churn: %+v", st)
	}
	if st.TopoDrainTimeouts != 0 {
		t.Fatalf("drains timed out under short requests: %+v", st)
	}
}

// TestDrainChurnStress hammers repeated add/drain cycles under fan-out
// traffic; every request must succeed and every drain must quiesce.  The
// nightly CI job extends the cycle count via MUSUITE_DRAIN_CHURN_CYCLES.
func TestDrainChurnStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	cycles := 8
	if s := os.Getenv("MUSUITE_DRAIN_CHURN_CYCLES"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			cycles = n
		}
	}

	leafAddrs := make([]string, 3)
	for i := range leafAddrs {
		leafAddrs[i], _ = startLeaf(t, nil)
	}
	spares := make([]string, 2)
	for i := range spares {
		spares[i], _ = startLeaf(t, nil)
	}
	addr, mt := startPinCheckMidTier(t, leafAddrs)
	c, err := rpc.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	stop := make(chan struct{})
	var completed atomic.Int64
	errs := make(chan error, 4)
	var clients sync.WaitGroup
	for g := 0; g < 4; g++ {
		clients.Add(1)
		go func(g int) {
			defer clients.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				n := 1 + (g*31+i)%97
				reply, err := c.Call("sum", []byte(strconv.Itoa(n)))
				if err != nil {
					errs <- fmt.Errorf("sum under churn: %w", err)
					return
				}
				// The pinned snapshot sums 2n over however many leaves it
				// held — always a positive multiple of 2n.
				total, err := strconv.Atoi(string(reply))
				if err != nil || total <= 0 || total%(2*n) != 0 {
					errs <- fmt.Errorf("sum(%d) = %q, not a multiple of %d", n, reply, 2*n)
					return
				}
				completed.Add(1)
			}
		}(g)
	}

	for i := 0; i < cycles; i++ {
		for _, spare := range spares {
			shard, err := mt.AddLeafGroup([]string{spare})
			if err != nil {
				t.Fatalf("cycle %d add: %v", i, err)
			}
			if err := mt.DrainLeafGroup(shard, 15*time.Second); err != nil {
				t.Fatalf("cycle %d drain: %v", i, err)
			}
		}
	}
	close(stop)
	clients.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if completed.Load() == 0 {
		t.Fatal("no traffic completed during the churn")
	}
	st := mt.Stats()
	if want := uint64(cycles * len(spares)); st.TopoAdds != want || st.TopoDrains != want {
		t.Fatalf("stats = %+v, want %d adds and drains", st, want)
	}
	if st.TopoDrainTimeouts != 0 {
		t.Fatalf("%d drains timed out", st.TopoDrainTimeouts)
	}
	t.Logf("drain churn: %d cycles, %d requests completed, epoch %d",
		cycles, completed.Load(), st.Epoch)
}

// TestMidTierStatsCarryTopology checks the topology fields ride the stats
// wire format.
func TestMidTierStatsCarryTopology(t *testing.T) {
	leafAddrs := make([]string, 2)
	for i := range leafAddrs {
		leafAddrs[i], _ = startLeaf(t, nil)
	}
	spare, _ := startLeaf(t, nil)
	addr, mt := startPinCheckMidTier(t, leafAddrs)

	shard, err := mt.AddLeafGroup([]string{spare})
	if err != nil {
		t.Fatal(err)
	}
	if err := mt.DrainLeafGroup(shard, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	c, err := rpc.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := QueryStats(c)
	if err != nil {
		t.Fatal(err)
	}
	// Bootstrap + add + drain = epoch 3; one add and one drain on record.
	if st.Epoch != 3 || st.TopoAdds != 1 || st.TopoDrains != 1 {
		t.Fatalf("stats = %+v, want epoch 3 with 1 add and 1 drain", st)
	}
	if st.Leaves != 2 {
		t.Fatalf("leaves = %d, want 2 after add+drain", st.Leaves)
	}
}

// TestGroupAddrsRejectsDuplicates covers the bootstrap-time half of
// duplicate-address protection (Topology.AddGroup covers the runtime half).
func TestGroupAddrsRejectsDuplicates(t *testing.T) {
	if _, err := GroupAddrs([]string{"a:1", "b:1", "a:1"}, 1); err == nil {
		t.Fatal("duplicate address accepted")
	}
	groups, err := GroupAddrs([]string{"a:1", "b:1", "c:1", "d:1"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 || len(groups[0]) != 2 {
		t.Fatalf("groups = %v, want 2 groups of 2", groups)
	}
}
