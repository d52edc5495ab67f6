package cluster

import (
	"errors"
	"strings"
	"testing"
	"time"

	"musuite/internal/rpc"
	"musuite/internal/telemetry"
)

// startLeaf starts one echo leaf server for topology tests.
func startLeaf(t *testing.T) (string, func()) {
	t.Helper()
	srv := rpc.NewServer(func(req *rpc.Request) {
		req.Reply(req.Payload)
	}, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("starting leaf: %v", err)
	}
	return addr, func() { srv.Close() }
}

// startLeaves starts n echo leaves and registers their cleanup.
func startLeaves(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addr, stop := startLeaf(t)
		t.Cleanup(stop)
		addrs[i] = addr
	}
	return addrs
}

func testConfig() Config {
	return Config{
		Dial: func(addr string) (*rpc.Pool, error) {
			return rpc.DialPool(addr, 1, nil)
		},
		Counters: telemetry.NewTable(nil),
	}
}

// count reads one of the topology's mutation counters.
func count(topo *Topology, c telemetry.Counter) uint64 { return topo.cfg.Counters.Load(c) }

func TestBootstrapPublishesEpochOne(t *testing.T) {
	addrs := startLeaves(t, 3)
	topo := New(testConfig())
	defer topo.Close()

	if got := topo.Current().Epoch(); got != 0 {
		t.Fatalf("pre-bootstrap epoch = %d, want 0", got)
	}
	if err := topo.Bootstrap([][]string{{addrs[0]}, {addrs[1], addrs[2]}}); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	s := topo.Current()
	if s.Epoch() != 1 {
		t.Errorf("epoch = %d, want 1", s.Epoch())
	}
	if s.NumLeaves() != 2 {
		t.Errorf("NumLeaves = %d, want 2", s.NumLeaves())
	}
	if s.NumReplicas() != 3 {
		t.Errorf("NumReplicas = %d, want 3", s.NumReplicas())
	}
	v := topo.View()
	if len(v.Groups) != 2 || v.Groups[1].State != "active" {
		t.Errorf("View = %+v, want 2 active groups", v)
	}
	if v.Router != "modulo" {
		t.Errorf("View.Router = %q, want modulo (default)", v.Router)
	}
}

func TestBootstrapRejectsEmptyGroup(t *testing.T) {
	topo := New(testConfig())
	defer topo.Close()
	err := topo.Bootstrap([][]string{{}})
	if err == nil || !strings.Contains(err.Error(), "empty leaf replica group") {
		t.Fatalf("Bootstrap(empty group) = %v, want empty-group error", err)
	}
}

func TestBootstrapRejectsDuplicateAddress(t *testing.T) {
	addrs := startLeaves(t, 1)
	topo := New(testConfig())
	defer topo.Close()
	err := topo.Bootstrap([][]string{{addrs[0]}, {addrs[0]}})
	if err == nil || !strings.Contains(err.Error(), "duplicate leaf address") {
		t.Fatalf("Bootstrap(dup) = %v, want duplicate-address error", err)
	}
}

func TestAddGroupAppendsHighestShard(t *testing.T) {
	addrs := startLeaves(t, 3)
	topo := New(testConfig())
	defer topo.Close()
	if err := topo.Bootstrap([][]string{{addrs[0]}, {addrs[1]}}); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}

	shard, err := topo.AddGroup([]string{addrs[2]})
	if err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	if shard != 2 {
		t.Errorf("AddGroup shard = %d, want 2", shard)
	}
	s := topo.Current()
	if s.NumLeaves() != 3 || s.Epoch() != 2 {
		t.Errorf("after add: leaves=%d epoch=%d, want 3/2", s.NumLeaves(), s.Epoch())
	}
	if got := count(topo, telemetry.TopoAdd); got != 1 {
		t.Errorf("topo.add = %d, want 1", got)
	}

	// The same address cannot serve two shards.
	if _, err := topo.AddGroup([]string{addrs[2]}); err == nil ||
		!strings.Contains(err.Error(), "duplicate leaf address") {
		t.Errorf("AddGroup(dup) = %v, want duplicate-address error", err)
	}
	if _, err := topo.AddGroup(nil); err == nil {
		t.Errorf("AddGroup(empty) = nil error, want empty-group error")
	}
}

func TestDrainGroupShiftsShardsDown(t *testing.T) {
	addrs := startLeaves(t, 3)
	topo := New(testConfig())
	defer topo.Close()
	if err := topo.Bootstrap([][]string{{addrs[0]}, {addrs[1]}, {addrs[2]}}); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}

	if err := topo.DrainGroup(1, time.Second); err != nil {
		t.Fatalf("DrainGroup: %v", err)
	}
	s := topo.Current()
	if s.NumLeaves() != 2 || s.Epoch() != 2 {
		t.Errorf("after drain: leaves=%d epoch=%d, want 2/2", s.NumLeaves(), s.Epoch())
	}
	// The surviving shards shifted: shard 1 now serves what was shard 2.
	if got := s.Group(1).Addrs()[0]; got != addrs[2] {
		t.Errorf("shard 1 addr = %s, want %s (shifted down)", got, addrs[2])
	}
	if d, dt := count(topo, telemetry.TopoDrain), count(topo, telemetry.TopoDrainTimeout); d != 1 || dt != 0 {
		t.Errorf("topo.drain=%d topo.drain-timeout=%d, want 1/0", d, dt)
	}
}

func TestDrainGroupTimesOutUnderPinnedReader(t *testing.T) {
	addrs := startLeaves(t, 2)
	topo := New(testConfig())
	defer topo.Close()
	if err := topo.Bootstrap([][]string{{addrs[0]}, {addrs[1]}}); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}

	// A request still holds the pre-drain snapshot; the drain cannot
	// quiesce and must report a deadline overrun.
	pinned := topo.Acquire()
	err := topo.DrainGroup(1, 20*time.Millisecond)
	if !errors.Is(err, ErrDrainTimeout) {
		t.Fatalf("DrainGroup under pin = %v, want ErrDrainTimeout", err)
	}
	if got := count(topo, telemetry.TopoDrainTimeout); got != 1 {
		t.Errorf("topo.drain-timeout = %d, want 1", got)
	}
	// The topology stayed consistent despite the overrun.
	if got := topo.Current().NumLeaves(); got != 1 {
		t.Errorf("NumLeaves after timed-out drain = %d, want 1", got)
	}
	pinned.Release()
}

func TestDrainGroupRefusesLastAndBadShard(t *testing.T) {
	addrs := startLeaves(t, 2)
	topo := New(testConfig())
	defer topo.Close()
	if err := topo.Bootstrap([][]string{{addrs[0]}, {addrs[1]}}); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}

	if err := topo.DrainGroup(5, time.Second); err == nil || !strings.Contains(err.Error(), "no such leaf shard") {
		t.Errorf("DrainGroup(5) = %v, want no-such-shard error", err)
	}
	if err := topo.DrainGroup(0, time.Second); err != nil {
		t.Fatalf("DrainGroup(0): %v", err)
	}
	if err := topo.DrainGroup(0, time.Second); err == nil || !strings.Contains(err.Error(), "last leaf group") {
		t.Errorf("DrainGroup(last) = %v, want last-group refusal", err)
	}
	if got := count(topo, telemetry.TopoDrain); got != 1 {
		t.Errorf("topo.drain = %d, want 1", got)
	}
}

func TestPinnedSnapshotIsImmutableAcrossMutations(t *testing.T) {
	addrs := startLeaves(t, 3)
	topo := New(testConfig())
	defer topo.Close()
	if err := topo.Bootstrap([][]string{{addrs[0]}, {addrs[1]}}); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}

	s := topo.Acquire()
	defer s.Release()
	if _, err := topo.AddGroup([]string{addrs[2]}); err != nil {
		t.Fatalf("AddGroup: %v", err)
	}
	// The pinned snapshot still describes the world at pin time.
	if s.NumLeaves() != 2 || s.Epoch() != 1 {
		t.Errorf("pinned snapshot: leaves=%d epoch=%d, want 2/1", s.NumLeaves(), s.Epoch())
	}
	if cur := topo.Current(); cur.NumLeaves() != 3 || cur.Epoch() != 2 {
		t.Errorf("current snapshot: leaves=%d epoch=%d, want 3/2", cur.NumLeaves(), cur.Epoch())
	}
}

func TestTryPinRefusesQuiescedSnapshot(t *testing.T) {
	addrs := startLeaves(t, 1)
	topo := New(testConfig())
	defer topo.Close()
	if err := topo.Bootstrap([][]string{{addrs[0]}}); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}

	s := topo.Acquire()
	if !s.TryPin() {
		t.Fatal("TryPin on a pinned snapshot = false, want true")
	}
	s.Release()
	s.Release()
	if s.TryPin() {
		t.Fatal("TryPin on a zero-pin snapshot = true, want false")
	}
}

func TestMutationsAfterCloseFail(t *testing.T) {
	addrs := startLeaves(t, 2)
	topo := New(testConfig())
	if err := topo.Bootstrap([][]string{{addrs[0]}}); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	topo.Close()

	if _, err := topo.AddGroup([]string{addrs[1]}); !errors.Is(err, ErrClosed) {
		t.Errorf("AddGroup after Close = %v, want ErrClosed", err)
	}
	if err := topo.Bootstrap([][]string{{addrs[1]}}); !errors.Is(err, ErrClosed) {
		t.Errorf("Bootstrap after Close = %v, want ErrClosed", err)
	}
	topo.Close() // idempotent
}
