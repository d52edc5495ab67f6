package core

import (
	"reflect"
	"time"

	"musuite/internal/rpc"
	"musuite/internal/telemetry"
	"musuite/internal/wire"
)

// StatsMethod is the reserved RPC method every framework tier answers with
// its operational counters — the introspection hook deployment tooling
// (health checks, autoscalers, the thread-pool-sizing schedulers §VII
// imagines) reads.
const StatsMethod = "core.stats"

// TierStats are one tier's operational counters and gauges.
//
// The counters are read from the tier's telemetry.Table: every event is
// booked once, into that table, and a counter is visible no later than the
// reply it describes — a caller that has read a reply sees that request in
// Served (and its scans in KernelPoints, its hedge in Hedges, …) on its next
// stats read.  Gauges are sampled when the snapshot is taken.
//
// The struct is its own description: a field tagged `counter:"family.name"`
// is filled from that slot of the table, and every field is encoded by kind
// in declaration order.  Surfacing a counter is one tagged field, a new
// gauge one untagged field; neither touches the codec.
type TierStats struct {
	// Role is "midtier" or "leaf".
	Role string
	// Served counts completed requests.
	Served uint64 `counter:"tier.served"`
	// Inlined counts requests run to completion on their poller.
	Inlined uint64 `counter:"tier.inlined"`
	// QueueDepth is the instantaneous dispatch-queue occupancy.
	QueueDepth int
	// Workers and ResponseThreads are the pool sizes (ResponseThreads is
	// zero for leaves).
	Workers, ResponseThreads int
	// Leaves is the connected leaf shard count (mid-tier only).
	Leaves int
	// Replicas is the total leaf replica count across shards (≥ Leaves
	// when replica groups are configured).
	Replicas int
	// Tail-tolerance counters (mid-tier only): hedges issued, hedges
	// whose duplicate won, retries issued, and hedges/retries suppressed
	// by the retry budget.
	Hedges       uint64 `counter:"tail.hedge"`
	HedgeWins    uint64 `counter:"tail.hedge-win"`
	Retries      uint64 `counter:"tail.retry"`
	BudgetDenied uint64 `counter:"tail.budget-denied"`
	// HedgeDelay is the current (fixed or percentile-tracked) hedge
	// delay; zero when hedging is disarmed.
	HedgeDelay time.Duration
	// Cross-request batching counters (mid-tier only): carrier RPCs sent,
	// member calls they transported (BatchMembers / BatchCarriers is the
	// mean batch occupancy), and the flush-cause breakdown.
	BatchCarriers      uint64 `counter:"batch.carriers"`
	BatchMembers       uint64 `counter:"batch.members"`
	BatchFlushSize     uint64 `counter:"batch.flush-size"`
	BatchFlushDeadline uint64 `counter:"batch.flush-deadline"`
	BatchFlushShutdown uint64 `counter:"batch.flush-shutdown"`
	// BatchDelay is the current (fixed or digest-tracked) flush delay;
	// zero when batching is disabled.
	BatchDelay time.Duration
	// Epoch is the default edge's cluster topology version (mid-tier
	// only); it increments on every add and drain, so a monitor can
	// detect a resize by watching this gauge.
	Epoch uint64
	// Topology mutation counters (mid-tier only, summed over its edges):
	// leaf groups added, gracefully drained, and drains whose quiescence
	// wait exceeded its deadline.
	TopoAdds          uint64 `counter:"topo.add"`
	TopoDrains        uint64 `counter:"topo.drain"`
	TopoDrainTimeouts uint64 `counter:"topo.drain-timeout"`
	// Compute-engine counters (leaf only): candidate points scored by the
	// leaf's kernel scans and wall nanoseconds spent inside them —
	// KernelPoints/KernelNanos·1e9 is the points-scanned/s throughput that
	// says whether the leaf is compute-bound.
	// KernelRefined is the part of KernelPoints a split-store scan read
	// twice (kernel.SplitStore): KernelRefined/KernelPoints is how much of
	// its input the leaf's filter fails to rule out.
	KernelPoints  uint64 `counter:"kernel.points"`
	KernelNanos   uint64 `counter:"kernel.nanos"`
	KernelRefined uint64 `counter:"kernel.refined"`
	// Admission-control counters (mid-tier only, zero with admission
	// off): requests admitted and requests shed at the adaptive limit.
	Admitted  uint64 `counter:"admit.admitted"`
	ShedLimit uint64 `counter:"admit.shed-limit"`
	// AdmitLimit and AdmitInflight are the live AIMD concurrency limit
	// and the admitted requests currently in flight — the gauges an
	// autoscaler reads to tell "limited by policy" from "limited by
	// capacity".
	AdmitLimit, AdmitInflight int
}

// counterFields maps the index of every TierStats field tagged
// `counter:"family.name"` to the table slot it reads.
var counterFields = func() map[int]telemetry.Counter {
	byLabel := make(map[string]telemetry.Counter, telemetry.NumCounters)
	for c := telemetry.Counter(0); c < telemetry.NumCounters; c++ {
		byLabel[c.String()] = c
	}
	fields := make(map[int]telemetry.Counter)
	t := reflect.TypeOf(TierStats{})
	for i := 0; i < t.NumField(); i++ {
		label, tagged := t.Field(i).Tag.Lookup("counter")
		if !tagged {
			continue
		}
		c, known := byLabel[label]
		if !known {
			panic("core: TierStats." + t.Field(i).Name + " names unknown counter " + label)
		}
		fields[i] = c
	}
	return fields
}()

// fillCounters sets every tagged field from a table snapshot.
func (s *TierStats) fillCounters(snap telemetry.Snapshot) {
	v := reflect.ValueOf(s).Elem()
	for i, c := range counterFields {
		v.Field(i).SetUint(snap[c])
	}
}

// encodeTierStats serializes stats for the wire: every field, by kind, in
// declaration order (a field of a kind it does not know fails
// TestTierStatsRoundTrip).
func encodeTierStats(s TierStats) []byte {
	e := wire.NewEncoder(128)
	v := reflect.ValueOf(s)
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.String:
			e.String(f.String())
		case reflect.Uint64:
			e.Uvarint(f.Uint())
		case reflect.Int, reflect.Int64:
			e.Uvarint(uint64(f.Int()))
		}
	}
	return e.Bytes()
}

// DecodeTierStats deserializes a StatsMethod reply.
func DecodeTierStats(b []byte) (TierStats, error) {
	var s TierStats
	d := wire.NewDecoder(b)
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.String:
			f.SetString(d.String())
		case reflect.Uint64:
			f.SetUint(d.Uvarint())
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(d.Uvarint()))
		}
	}
	if err := d.Err(); err != nil {
		return TierStats{}, err
	}
	return s, nil
}

// QueryStats fetches a tier's counters over an existing client connection.
func QueryStats(c *rpc.Client) (TierStats, error) {
	reply, err := c.Call(StatsMethod, nil)
	if err != nil {
		return TierStats{}, err
	}
	return DecodeTierStats(reply)
}

// Stats snapshots the mid-tier's table and gauges — what StatsMethod serves
// over the wire, in-process for collocated consumers like the autoscaler.
// Leaves/Replicas sum across all connected edges (identical to the classic
// values when only the default edge exists); the epoch comes from the default
// edge, whose topology MidTier.Topology returns.
func (m *MidTier) Stats() TierStats {
	leaves, replicas := 0, 0
	m.edgeMu.Lock()
	for _, e := range m.edges {
		snap := e.topo.Current()
		leaves += snap.NumLeaves()
		replicas += snap.NumReplicas()
	}
	m.edgeMu.Unlock()
	s := TierStats{
		Role:            "midtier",
		QueueDepth:      m.workers.QueueDepth(),
		Workers:         m.workers.Workers(),
		ResponseThreads: m.responses.Workers(),
		Leaves:          leaves,
		Replicas:        replicas,
		Epoch:           m.def.topo.Current().Epoch(),
	}
	s.fillCounters(m.counters.Snapshot())
	if m.def.policy.Tail.hedging() {
		s.HedgeDelay = m.def.hedgeDelay()
	}
	if m.def.policy.Batch.enabled() {
		s.BatchDelay = m.def.batchDelay()
	}
	if m.admit != nil {
		s.AdmitLimit = m.admit.currentLimit()
		s.AdmitInflight = m.admit.currentInflight()
	}
	return s
}

// Stats snapshots the leaf's table and gauges — what StatsMethod serves
// over the wire.
func (l *Leaf) Stats() TierStats {
	s := TierStats{
		Role:       "leaf",
		QueueDepth: l.workers.QueueDepth(),
		Workers:    l.workers.Workers(),
	}
	s.fillCounters(l.counters.Snapshot())
	return s
}
