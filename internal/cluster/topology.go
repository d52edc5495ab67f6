// Package cluster owns the mutable leaf topology of a mid-tier: which leaf
// replica groups exist, how keys route onto them, and how groups enter and
// leave service while requests are in flight.
//
// The design is RCU-style: the entire topology — leaf groups, replica sets,
// and the routing strategy — lives in an immutable epoch-versioned Snapshot
// published through one atomic pointer.  The request hot path acquires the
// current snapshot with two atomic operations and no allocation, reads it
// for the whole request, and releases it; mutations (add, drain, remove)
// build a new snapshot under a mutex and swap it in, so readers never take
// a lock and never observe a half-updated topology.
//
// Pins make graceful drain possible: a snapshot counts its active readers,
// so once a group has been dropped from the published snapshot the drainer
// merely waits for every older snapshot's pin count to reach zero — at that
// point no request can issue another call to the group and nothing of its
// traffic sits in a batcher queue — then flushes the group's batchers,
// waits out the calls still on the wire, and closes its pools.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"musuite/internal/rpc"
	"musuite/internal/telemetry"
)

// DefaultDrainDeadline bounds a DrainGroup wait when the caller passes no
// deadline.
const DefaultDrainDeadline = 30 * time.Second

// ErrClosed reports a topology mutation after Close.
var ErrClosed = errors.New("cluster: topology closed")

// ErrDrainTimeout reports a drain whose quiescence wait exceeded its
// deadline; the group was closed anyway, so calls still in flight against
// it fail with connection errors.
var ErrDrainTimeout = errors.New("cluster: drain deadline exceeded")

// Config parameterizes a Topology.
type Config struct {
	// Dial opens the connection pool for one leaf address.  Required.
	Dial func(addr string) (*rpc.Pool, error)
	// NewBatcher, when set, wraps every replica pool with a cross-request
	// batcher at dial time (nil disables batching).
	NewBatcher func(pool *rpc.Pool) *rpc.Batcher
	// Router is the shard placement strategy (default Modulo).
	Router Router
	// Counters receives the topo.* mutation counters — the owning tier's
	// table; nil disables counting.
	Counters *telemetry.Table
}

// Snapshot is one immutable epoch of the topology.  Everything a request
// needs to route — the group list and the strategy — is read from the one
// snapshot it pinned at arrival, so a request can never see the leaf count
// change mid-flight.
type Snapshot struct {
	epoch  uint64
	groups []*Group
	router Router
	// pins counts the requests (and late attempt issuers) still reading
	// this snapshot; a drain waits for retired snapshots to reach zero.
	pins atomic.Int64
}

// Epoch is the snapshot's version; it increments on every publish.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// NumLeaves reports the leaf shard count.
func (s *Snapshot) NumLeaves() int { return len(s.groups) }

// NumReplicas reports the total leaf replica count across all shards.
func (s *Snapshot) NumReplicas() int {
	n := 0
	for _, g := range s.groups {
		n += g.Size()
	}
	return n
}

// Group returns shard's replica group; the caller must bounds-check shard
// against NumLeaves.
func (s *Snapshot) Group(shard int) *Group { return s.groups[shard] }

// Router is the snapshot's placement strategy.
func (s *Snapshot) Router() Router { return s.router }

// Shard places a key hash onto one of the snapshot's shards.
func (s *Snapshot) Shard(hash uint64) int { return s.router.Shard(hash, len(s.groups)) }

// TryPin takes an additional pin only while the snapshot is already pinned
// by someone.  Late attempt issuers (a hedge timer, a retry racing a
// fan-out expiry) use it: if their request still holds its pin the TryPin
// succeeds and the groups are guaranteed live for the duration; if it
// returns false the request has already been answered, so there is nothing
// worth issuing — and the group may be mid-drain with its pools closing.
func (s *Snapshot) TryPin() bool {
	for {
		p := s.pins.Load()
		if p <= 0 {
			return false
		}
		if s.pins.CompareAndSwap(p, p+1) {
			return true
		}
	}
}

// Release drops one pin.
func (s *Snapshot) Release() { s.pins.Add(-1) }

// Topology is the mutable owner of the snapshot chain.  Reads are lock-free
// (Acquire/Current); mutations serialize on an internal mutex but never
// hold it while waiting for quiescence, so a slow drain doesn't block a
// concurrent add.
type Topology struct {
	cfg Config
	cur atomic.Pointer[Snapshot]

	mu sync.Mutex
	// retired holds published-out snapshots whose pins have not yet been
	// observed at zero; drains wait for this list to empty.
	retired []*Snapshot
	closed  bool
}

// New creates an empty topology (epoch 0, no leaves).  Bootstrap publishes
// the first serving snapshot.
func New(cfg Config) *Topology {
	if cfg.Router == nil {
		cfg.Router = Modulo{}
	}
	t := &Topology{cfg: cfg}
	t.cur.Store(&Snapshot{router: cfg.Router})
	return t
}

// Acquire pins and returns the current snapshot.  The acquire-then-verify
// loop closes the load/pin race: a snapshot retired between the load and
// the pin is released and the load retried, so a pinned snapshot was
// provably current at pin time and a drainer that saw zero pins on it can
// trust no reader holds it.
func (t *Topology) Acquire() *Snapshot {
	for {
		s := t.cur.Load()
		s.pins.Add(1)
		if t.cur.Load() == s {
			return s
		}
		s.pins.Add(-1)
	}
}

// Current returns the current snapshot without pinning — a point read for
// gauges and logs.  Callers that issue calls against the snapshot's groups
// must use Acquire instead.
func (t *Topology) Current() *Snapshot { return t.cur.Load() }

// dialGroup dials one replica group, closing partial work on failure.
func (t *Topology) dialGroup(addrs []string) (*Group, error) {
	g := &Group{addrs: append([]string(nil), addrs...)}
	for _, addr := range addrs {
		pool, err := t.cfg.Dial(addr)
		if err != nil {
			g.Close()
			return nil, fmt.Errorf("cluster: dialing leaf %s: %w", addr, err)
		}
		g.pools = append(g.pools, pool)
		if t.cfg.NewBatcher != nil {
			g.batchers = append(g.batchers, t.cfg.NewBatcher(pool))
		}
	}
	return g, nil
}

// dupAddr reports the first address in addrs already served by groups (or
// repeated within addrs itself); "" when none.
func dupAddr(groups []*Group, addrs []string) string {
	seen := make(map[string]struct{}, len(addrs))
	for _, g := range groups {
		for _, a := range g.addrs {
			seen[a] = struct{}{}
		}
	}
	for _, a := range addrs {
		if _, dup := seen[a]; dup {
			return a
		}
		seen[a] = struct{}{}
	}
	return ""
}

// publishLocked swaps a new snapshot in and retires the old one.  Caller
// holds t.mu.
func (t *Topology) publishLocked(groups []*Group) *Snapshot {
	old := t.cur.Load()
	s := &Snapshot{epoch: old.epoch + 1, groups: groups, router: old.router}
	t.cur.Store(s)
	t.retired = append(t.retired, old)
	t.sweepRetiredLocked()
	return s
}

// sweepRetiredLocked drops retired snapshots whose pins reached zero.  A
// zero-pin retired snapshot can never be re-pinned: Acquire's verify loop
// rejects it and TryPin refuses a zero count.
func (t *Topology) sweepRetiredLocked() {
	live := t.retired[:0]
	for _, s := range t.retired {
		if s.pins.Load() != 0 {
			live = append(live, s)
		}
	}
	for i := len(live); i < len(t.retired); i++ {
		t.retired[i] = nil
	}
	t.retired = live
}

// retiredQuiesced sweeps and reports whether every retired snapshot's
// readers have finished.
func (t *Topology) retiredQuiesced() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sweepRetiredLocked()
	return len(t.retired) == 0
}

// awaitRetired polls for retired-snapshot quiescence until limit.
func (t *Topology) awaitRetired(limit time.Time) bool {
	for d := 50 * time.Microsecond; ; {
		if t.retiredQuiesced() {
			return true
		}
		if !time.Now().Before(limit) {
			return false
		}
		time.Sleep(d)
		if d < 2*time.Millisecond {
			d *= 2
		}
	}
}

// Bootstrap dials every leaf shard's replica set and publishes the first
// serving snapshot: groups[i] lists the addresses of the replicas serving
// shard i.  On any error every pool dialed so far is closed.
func (t *Topology) Bootstrap(groups [][]string) error {
	gs := make([]*Group, 0, len(groups))
	fail := func(err error) error {
		for _, g := range gs {
			g.Close()
		}
		return err
	}
	var flat []string
	for _, addrs := range groups {
		if len(addrs) == 0 {
			return fail(errors.New("cluster: empty leaf replica group"))
		}
		flat = append(flat, addrs...)
	}
	if dup := dupAddr(nil, flat); dup != "" {
		return fail(fmt.Errorf("cluster: duplicate leaf address %s", dup))
	}
	for _, addrs := range groups {
		g, err := t.dialGroup(addrs)
		if err != nil {
			return fail(err)
		}
		gs = append(gs, g)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fail(ErrClosed)
	}
	t.publishLocked(gs)
	return nil
}

// AddGroup dials a new leaf replica group and places it in service as the
// highest shard index, which it returns.  The group is fully connected
// before it is published, so the first request routed to it finds live
// pools.
func (t *Topology) AddGroup(addrs []string) (int, error) {
	if len(addrs) == 0 {
		return 0, errors.New("cluster: empty leaf replica group")
	}
	g, err := t.dialGroup(addrs)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		g.Close()
		return 0, ErrClosed
	}
	cur := t.cur.Load()
	if dup := dupAddr(cur.groups, addrs); dup != "" {
		t.mu.Unlock()
		g.Close()
		return 0, fmt.Errorf("cluster: duplicate leaf address %s", dup)
	}
	groups := make([]*Group, 0, len(cur.groups)+1)
	groups = append(groups, cur.groups...)
	groups = append(groups, g)
	s := t.publishLocked(groups)
	t.mu.Unlock()
	t.cfg.Counters.Add(telemetry.TopoAdd, 1)
	return s.NumLeaves() - 1, nil
}

// removeLocked unpublishes shard's group, marking it draining, and returns
// it.  Later shards shift down one index.
func (t *Topology) removeLocked(shard int) (*Group, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	cur := t.cur.Load()
	if shard < 0 || shard >= len(cur.groups) {
		return nil, fmt.Errorf("cluster: no such leaf shard %d", shard)
	}
	if len(cur.groups) == 1 {
		return nil, errors.New("cluster: cannot remove the last leaf group")
	}
	g := cur.groups[shard]
	g.state.Store(int32(GroupDraining))
	rest := make([]*Group, 0, len(cur.groups)-1)
	rest = append(rest, cur.groups[:shard]...)
	rest = append(rest, cur.groups[shard+1:]...)
	t.publishLocked(rest)
	return g, nil
}

// DrainGroup gracefully removes shard's leaf group: publish a snapshot
// without it (new requests route around it), wait until every request
// pinned to an older snapshot has finished — at which point nothing can
// issue another call to the group and nothing of its traffic sits queued in
// a batcher — then flush its batchers, wait for the calls still on the wire,
// and close the pools.  Shards above shard shift down one index.
//
// deadline bounds the whole wait (≤ 0 selects DefaultDrainDeadline).  On
// expiry the group is closed anyway and the error wraps ErrDrainTimeout:
// the topology stays consistent, but calls still in flight against the
// group fail with connection errors.
func (t *Topology) DrainGroup(shard int, deadline time.Duration) error {
	g, err := t.removeLocked(shard)
	if err != nil {
		return err
	}
	t.cfg.Counters.Add(telemetry.TopoDrain, 1)
	if deadline <= 0 {
		deadline = DefaultDrainDeadline
	}
	limit := time.Now().Add(deadline)
	switch {
	case !t.awaitRetired(limit):
		err = fmt.Errorf("cluster: draining shard %d: %w (readers still pinned to old snapshots)", shard, ErrDrainTimeout)
	default:
		// No pinned reader remains, so no new call can reach the group;
		// flush anything a batcher still holds and let the wire empty.
		g.closeBatchers()
		if !g.awaitIdle(limit) {
			err = fmt.Errorf("cluster: draining shard %d: %w (%d calls still in flight)", shard, ErrDrainTimeout, g.Outstanding())
		}
	}
	g.Close()
	if err != nil {
		t.cfg.Counters.Add(telemetry.TopoDrainTimeout, 1)
	}
	return err
}

// Close shuts down every group in the current snapshot and rejects further
// mutations.  Groups mid-drain are closed by their drainer.
func (t *Topology) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	cur := t.cur.Load()
	t.mu.Unlock()
	for _, g := range cur.groups {
		g.Close()
	}
}

// GroupView describes one leaf group for operators.
type GroupView struct {
	// Shard is the group's index in the current snapshot.
	Shard int
	// Addrs lists the replica addresses.
	Addrs []string
	// State is the drain state machine position ("active", "draining",
	// "closed").
	State string
	// Outstanding is the group's in-flight call count.
	Outstanding int
}

// View describes the current topology for operators.
type View struct {
	// Epoch is the current snapshot's version.
	Epoch uint64
	// Router names the placement strategy.
	Router string
	// Groups lists every serving leaf group in shard order.
	Groups []GroupView
}

// View captures the current topology for an operator or a report.
func (t *Topology) View() View {
	s := t.cur.Load()
	v := View{Epoch: s.epoch, Router: s.router.Name()}
	for i, g := range s.groups {
		v.Groups = append(v.Groups, GroupView{
			Shard:       i,
			Addrs:       append([]string(nil), g.addrs...),
			State:       g.State().String(),
			Outstanding: g.Outstanding(),
		})
	}
	return v
}
