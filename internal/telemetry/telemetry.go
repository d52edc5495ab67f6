// Package telemetry is the in-process analog of the measurement stack the
// paper builds on eBPF (syscount, hardirqs, softirqs, runqlat, tcpretrans),
// perf (context switches), and PEBS HITM events (lock contention).
//
// Loading kernel probes is out of scope for a portable library, so instead
// the μSuite framework timestamps and counts the same events at the same
// architectural boundaries:
//
//   - Syscall-proxy counters: every socket frame write counts a sendmsg,
//     every frame read a recvmsg, every blocking read entry an epoll_pwait,
//     every condition-variable wait/signal and contended mutex a futex, and
//     every worker spawn a clone.  These are exactly the call sites where a
//     C++ thread-pool microservice issues the corresponding syscalls
//     (paper Figs. 11–14).
//   - OS-overhead latency classes (paper Figs. 15–18): Hardirq, Net_tx,
//     Net_rx, Block, Sched, RCU, Active-Exe, and Net, measured per request
//     at the boundaries documented on the Overhead constants.
//   - A context-switch proxy (every voluntary block of a framework thread)
//     and a HITM/contention proxy (every mutex acquisition that found the
//     lock held), mirroring paper Fig. 19.
//
// Every counted event is one Counter, booked once, at one call site, into
// one Table.  Each tier owns a Table (what core.stats serves); a Table's
// parent pointer forwards every Add to the deployment-wide Probe, so the
// Probe always equals the sum of the tables attached to it.  Adding a
// counter is one line in the Counter enum plus its name in counterNames.
package telemetry

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"musuite/internal/stats"
)

// Counter names one counted event.  Labels are "family.name"; the family
// groups counters for display (Family, Syscalls).
type Counter uint8

const (
	// The sys family: the system calls of the paper's syscount breakdown
	// (Figs. 11–14) that the framework's request path issues, in the order
	// the paper's figures list them.  The framework increments the proxy
	// counter at the point where a native thread-pool server would issue
	// the real call.
	SysSendmsg Counter = iota
	SysEpollPwait
	SysWrite
	SysRead
	SysRecvmsg
	SysClose
	SysFutex
	SysClone

	// The os family (paper Fig. 19).
	//
	// CtxSwitch — one voluntary thread block (CS proxy).
	CtxSwitch
	// HITM — one contended lock acquisition (HITM proxy).
	HITM
	// TCPRetransmit — one transport-level retry (the paper reports only
	// single-digit counts here; ours stays at zero on loopback unless a
	// connection-level retry fires).
	TCPRetransmit

	// The tier family: a tier's request accounting.
	//
	// TierServed — a request completed (a leaf counts each batch member).
	TierServed
	// TierInlined — a request ran to completion on the poller that decoded
	// it, with no hand-off to a worker.
	TierInlined

	// The tail family: the tail-tolerance actions of the hedged-request /
	// retry-budget machinery, counted so the win rate (and the budget's
	// bite) can be read alongside the latency distributions they reshape.
	//
	// TailHedge — a duplicate leaf request was issued after the hedge
	// delay elapsed without a response.
	TailHedge
	// TailHedgeWin — the hedge, not the primary, produced the winning
	// response.
	TailHedgeWin
	// TailRetry — a leaf call was re-issued after a retryable
	// (timeout/connection-class) failure.
	TailRetry
	// TailBudgetDenied — a wanted hedge or retry was suppressed because
	// the retry budget was exhausted.
	TailBudgetDenied

	// The batch family: the cross-request leaf-batching actions of the
	// mid-tier's per-replica batchers, counted so batch occupancy
	// (BatchMembers / BatchCarriers) and the flush-cause mix can be read
	// alongside the per-RPC overheads batching amortizes.
	//
	// BatchCarriers — carrier RPCs (including lone-member sends) that left
	// a batcher.
	BatchCarriers
	// BatchMembers — member calls those carriers transported.
	BatchMembers
	// BatchFlushSize — flushes triggered by the queue reaching MaxBatch.
	BatchFlushSize
	// BatchFlushDeadline — flushes triggered by the adaptive delay expiring.
	BatchFlushDeadline
	// BatchFlushShutdown — flushes triggered by batcher close.
	BatchFlushShutdown

	// The topo family: the cluster-topology mutations of the mid-tier's
	// epoch-versioned leaf maps, counted so elastic operation (groups
	// entering and leaving service under load) can be read alongside the
	// latency distributions the transitions may disturb.
	//
	// TopoAdd — a leaf replica group was dialed and placed in service.
	TopoAdd
	// TopoDrain — a leaf group was removed gracefully: routing stopped,
	// outstanding and batched calls completed, pools closed.
	TopoDrain
	// TopoDrainTimeout — a drain's quiescence wait exceeded its deadline
	// and the group was closed with work still pending.
	TopoDrainTimeout

	// The admit family: the adaptive admission controller's actions — how
	// many requests were admitted, how many were shed (and by which rule),
	// and which way the AIMD concurrency limit last moved — counted so the
	// overload experiment can read goodput and shed mix alongside the
	// latency distributions admission protects.
	//
	// AdmitAdmitted — a request passed admission and entered the pipeline.
	AdmitAdmitted
	// AdmitShedLimit — a request was rejected at arrival because the
	// adaptive concurrency limit was full.
	AdmitShedLimit
	// AdmitLimitUp — the AIMD controller raised the concurrency limit
	// (additive increase: observed latency near its EWMA floor).
	AdmitLimitUp
	// AdmitLimitDown — the AIMD controller cut the concurrency limit
	// (multiplicative decrease: observed latency above tolerance × floor).
	AdmitLimitDown

	// The scale family: the autoscaler's decisions, counted so elastic
	// capacity (groups added and drained by the control loop, not an
	// operator) can be read alongside the shed counters it exists to
	// suppress.
	//
	// ScalePoll — the autoscaler completed one stats read.
	ScalePoll
	// ScaleUp — the autoscaler added a leaf group.
	ScaleUp
	// ScaleDown — the autoscaler drained a leaf group.
	ScaleDown
	// ScaleHold — a breach was observed but hysteresis, cooldown, or a
	// capacity bound withheld the action.
	ScaleHold
	// ScaleError — a stats poll or a scale action failed.
	ScaleError

	// The kernel family: the leaf compute-engine counters — how many kernel
	// scans ran, how many candidate points they scored, and how long they
	// spent doing it — together giving the points-scanned/s throughput that
	// tells whether a leaf is compute-bound (the paper's post-RPC regime)
	// or still framework-bound.
	//
	// KernelScans — kernel invocations (one per leaf scan).
	KernelScans
	// KernelPoints — candidate rows scored across all scans.
	KernelPoints
	// KernelNanos — wall nanoseconds spent inside the kernels.
	KernelNanos
	// KernelRefined — of KernelPoints, the rows a split-store scan's filter
	// could not rule out and read a second time, exactly.
	KernelRefined

	// NumCounters is the table size; it is not a counter.
	NumCounters
)

// counterNames labels every counter "family.name"; sys names are the
// kernel's, so the figure rows read futex, sendmsg, ….
var counterNames = [NumCounters]string{
	SysSendmsg: "sys.sendmsg", SysEpollPwait: "sys.epoll_pwait", SysWrite: "sys.write",
	SysRead: "sys.read", SysRecvmsg: "sys.recvmsg", SysClose: "sys.close",
	SysFutex: "sys.futex", SysClone: "sys.clone",
	CtxSwitch: "os.ctx-switch", HITM: "os.hitm", TCPRetransmit: "os.tcp-retransmit",
	TierServed: "tier.served", TierInlined: "tier.inlined",
	TailHedge: "tail.hedge", TailHedgeWin: "tail.hedge-win", TailRetry: "tail.retry",
	TailBudgetDenied: "tail.budget-denied",
	BatchCarriers:    "batch.carriers", BatchMembers: "batch.members", BatchFlushSize: "batch.flush-size",
	BatchFlushDeadline: "batch.flush-deadline", BatchFlushShutdown: "batch.flush-shutdown",
	TopoAdd: "topo.add", TopoDrain: "topo.drain", TopoDrainTimeout: "topo.drain-timeout",
	AdmitAdmitted: "admit.admitted", AdmitShedLimit: "admit.shed-limit",
	AdmitLimitUp: "admit.limit-up", AdmitLimitDown: "admit.limit-down",
	ScalePoll: "scale.poll", ScaleUp: "scale.up", ScaleDown: "scale.down", ScaleHold: "scale.hold",
	ScaleError:  "scale.error",
	KernelScans: "kernel.scans", KernelPoints: "kernel.points", KernelNanos: "kernel.nanos",
	KernelRefined: "kernel.refined",
}

// String returns the counter's "family.name" label.
func (c Counter) String() string {
	if c >= NumCounters {
		return fmt.Sprintf("counter(%d)", int(c))
	}
	return counterNames[c]
}

// Name returns the label without its family — the row label of the paper's
// figures ("futex", "sendmsg", …).
func (c Counter) Name() string {
	_, name, _ := strings.Cut(c.String(), ".")
	return name
}

// Family lists the counters labelled "family.*" in display order.
func Family(family string) []Counter {
	var out []Counter
	prefix := family + "."
	for c := Counter(0); c < NumCounters; c++ {
		if strings.HasPrefix(counterNames[c], prefix) {
			out = append(out, c)
		}
	}
	return out
}

// Syscalls lists all tracked syscall classes in display order.
func Syscalls() []Counter { return Family("sys") }

// Table is one owner's counters: a fixed-size array of atomics.  A nil
// *Table is valid and makes every method a no-op.
type Table struct {
	v [NumCounters]atomic.Uint64
	// parent receives every Add as well, so a deployment-wide table equals
	// the sum of the tables attached to it.
	parent *Table
}

// NewTable returns an empty table forwarding to parent (nil for none).
func NewTable(parent *Table) *Table { return &Table{parent: parent} }

// Add counts n occurrences of c here and in every ancestor.
func (t *Table) Add(c Counter, n uint64) {
	for ; t != nil; t = t.parent {
		t.v[c].Add(n)
	}
}

// Load reports this table's count of c.
func (t *Table) Load(c Counter) uint64 {
	if t == nil {
		return 0
	}
	return t.v[c].Load()
}

// Snapshot is a point-in-time copy of a table, indexed by Counter.
type Snapshot [NumCounters]uint64

// Snapshot captures the current counter values.
func (t *Table) Snapshot() (s Snapshot) {
	if t != nil {
		for i := range s {
			s[i] = t.v[i].Load()
		}
	}
	return s
}

// Delta returns the per-counter difference cur − prev (clamped at zero).
func (cur Snapshot) Delta(prev Snapshot) (d Snapshot) {
	for i, v := range cur {
		if v > prev[i] {
			d[i] = v - prev[i]
		}
	}
	return d
}

// Overhead enumerates the OS-operation latency classes of paper Figs. 15–18,
// with the operational definition used by this reproduction.
type Overhead int

const (
	// OverheadHardirq — paper: interrupt-handler latency for network hard
	// IRQs.  Here: time from a frame's first byte being available to the
	// frame being fully read and decoded.
	OverheadHardirq Overhead = iota
	// OverheadNetTx — paper: soft-IRQ handler latency while sending.
	// Here: duration of the socket frame-write call.
	OverheadNetTx
	// OverheadNetRx — paper: soft-IRQ handler latency while receiving.
	// Here: duration of the non-blocking portion of a frame read.
	OverheadNetRx
	// OverheadBlock — paper: soft-IRQ latency when a thread enters the
	// blocked state.  Here: time taken to park a framework thread
	// (from deciding to block to being fully descheduled).
	OverheadBlock
	// OverheadSched — paper: soft-IRQ latency for scheduler actions.
	// Here: wakeup latency of the leaf-response collection threads
	// (signal → running).
	OverheadSched
	// OverheadRCU — paper: soft-IRQ latency for read-copy-update.
	// Here: duration of shared read-mostly state lookups (pending-call
	// table reads under RLock).
	OverheadRCU
	// OverheadActiveExe — paper: time from a thread entering the active /
	// runnable state to running on a CPU (runqlat).  Here: time from a
	// worker being signalled with new work to the worker executing it.
	// This is the class the paper finds dominates mid-tier tails (up to
	// ~87%).
	OverheadActiveExe
	// OverheadNet — paper: net mid-tier latency.  Here: total time from
	// request receipt at the mid-tier to the response write completing.
	OverheadNet
	numOverheads
)

// String returns the paper's label for the overhead class.
func (o Overhead) String() string {
	names := [...]string{"Hardirq", "Net_tx", "Net_rx", "Block", "Sched", "RCU", "Active-Exe", "Net"}
	if o < 0 || int(o) >= len(names) {
		return fmt.Sprintf("overhead(%d)", int(o))
	}
	return names[o]
}

// Overheads lists all overhead classes in the paper's display order.
func Overheads() []Overhead {
	out := make([]Overhead, numOverheads)
	for i := range out {
		out[i] = Overhead(i)
	}
	return out
}

// Probe collects all counters and distributions for one deployment under
// test: the root counter Table the tiers' tables forward to, plus one
// latency histogram per Overhead class.  A nil *Probe is valid and makes
// every method a no-op, so components can be run uninstrumented at zero
// cost.
type Probe struct {
	counters  Table
	overheads [numOverheads]*stats.Histogram
}

// NewProbe returns an empty probe.
func NewProbe() *Probe {
	p := &Probe{}
	for i := range p.overheads {
		p.overheads[i] = stats.NewHistogram()
	}
	return p
}

// Table returns the probe's counter table — the parent a tier's table
// forwards to — or nil for a nil probe.
func (p *Probe) Table() *Table {
	if p == nil {
		return nil
	}
	return &p.counters
}

// Add counts n occurrences of c.
func (p *Probe) Add(c Counter, n uint64) { p.Table().Add(c, n) }

// Snapshot captures the current counter values; the experiment harness
// differences two of them per measurement window.
func (p *Probe) Snapshot() Snapshot { return p.Table().Snapshot() }

// ObserveOverhead records one latency observation for class o.
func (p *Probe) ObserveOverhead(o Overhead, d time.Duration) {
	if p == nil {
		return
	}
	p.overheads[o].Record(d)
}

// Start opens an interval for ObserveSince.  A nil probe records nothing,
// so it reads no clock: the uninstrumented path pays for no timestamp.
func (p *Probe) Start() time.Time {
	if p == nil {
		return time.Time{}
	}
	return time.Now()
}

// ObserveSince records the time since start for class o.
func (p *Probe) ObserveSince(o Overhead, start time.Time) {
	if p != nil {
		p.ObserveOverhead(o, time.Since(start))
	}
}

// OverheadSnapshot returns the distribution summary for class o.
func (p *Probe) OverheadSnapshot(o Overhead) stats.Snapshot {
	if p == nil {
		return stats.Snapshot{}
	}
	return p.overheads[o].Snapshot()
}

// Reset zeroes the probe's counters and distributions (not the tier tables
// forwarding to it: those are lifetime counters).
func (p *Probe) Reset() {
	if p == nil {
		return
	}
	for i := range p.counters.v {
		p.counters.v[i].Store(0)
	}
	for _, h := range p.overheads {
		h.Reset()
	}
}
