package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilProbeSafe(t *testing.T) {
	var p *Probe
	p.Add(SysFutex, 1)
	p.Add(SysSendmsg, 10)
	p.Add(CtxSwitch, 1)
	p.ObserveOverhead(OverheadActiveExe, time.Millisecond)
	p.Reset()
	if p.Snapshot()[SysFutex] != 0 || p.Snapshot()[CtxSwitch] != 0 || p.Table() != nil {
		t.Fatal("nil probe returned non-zero")
	}
	if p.OverheadSnapshot(OverheadNet).Count != 0 {
		t.Fatal("nil probe snapshot non-empty")
	}
	if p.Snapshot() != (Snapshot{}) {
		t.Fatal("nil probe snapshot has counts")
	}
	var tab *Table
	tab.Add(TailHedge, 1)
	if tab.Load(TailHedge) != 0 || tab.Snapshot() != (Snapshot{}) {
		t.Fatal("nil table returned non-zero")
	}
}

func TestCounters(t *testing.T) {
	p := NewProbe()
	p.Add(SysFutex, 1)
	p.Add(SysFutex, 1)
	p.Add(SysRecvmsg, 5)
	if p.Snapshot()[SysFutex] != 2 {
		t.Errorf("futex=%d", p.Snapshot()[SysFutex])
	}
	if p.Snapshot()[SysRecvmsg] != 5 {
		t.Errorf("recvmsg=%d", p.Snapshot()[SysRecvmsg])
	}
	p.Add(CtxSwitch, 1)
	p.Add(HITM, 1)
	p.Add(TCPRetransmit, 1)
	if p.Snapshot()[CtxSwitch] != 1 || p.Snapshot()[HITM] != 1 || p.Snapshot()[TCPRetransmit] != 1 {
		t.Error("scalar counters wrong")
	}
	p.Reset()
	if p.Snapshot()[SysFutex] != 0 || p.Snapshot()[CtxSwitch] != 0 {
		t.Error("reset failed")
	}
}

// TestTableForwardsToParent: an Add lands in the table and every ancestor,
// so the root equals the sum of its children; a child's counts stay its own
// and survive a Reset of the probe they forward to.
func TestTableForwardsToParent(t *testing.T) {
	p := NewProbe()
	a, b := NewTable(p.Table()), NewTable(p.Table())
	a.Add(TierServed, 3)
	b.Add(TierServed, 4)
	b.Add(KernelPoints, 100)
	p.Add(SysFutex, 9) // booked on the root directly: no child sees it
	if a.Load(TierServed) != 3 || b.Load(TierServed) != 4 || p.Snapshot()[TierServed] != 7 {
		t.Errorf("served: a=%d b=%d root=%d", a.Load(TierServed), b.Load(TierServed), p.Snapshot()[TierServed])
	}
	if a.Load(KernelPoints) != 0 || p.Snapshot()[KernelPoints] != 100 || a.Load(SysFutex) != 0 {
		t.Error("counts leaked between sibling tables")
	}
	p.Reset()
	if p.Snapshot()[TierServed] != 0 || b.Load(TierServed) != 4 {
		t.Error("probe reset must clear the root and only the root")
	}
}

func TestOverheadDistributions(t *testing.T) {
	p := NewProbe()
	for i := 1; i <= 100; i++ {
		p.ObserveOverhead(OverheadActiveExe, time.Duration(i)*time.Microsecond)
	}
	snap := p.OverheadSnapshot(OverheadActiveExe)
	if snap.Count != 100 {
		t.Fatalf("count=%d", snap.Count)
	}
	if med := snap.Median; med < 45*time.Microsecond || med > 55*time.Microsecond {
		t.Errorf("median=%v", med)
	}
	// Other classes remain empty.
	if p.OverheadSnapshot(OverheadRCU).Count != 0 {
		t.Error("cross-class contamination")
	}
}

func TestSnapshotDelta(t *testing.T) {
	p := NewProbe()
	p.Add(SysSendmsg, 10)
	p.Add(CtxSwitch, 1)
	before := p.Snapshot()
	p.Add(SysSendmsg, 7)
	p.Add(HITM, 1)
	after := p.Snapshot()
	d := after.Delta(before)
	if d[SysSendmsg] != 7 {
		t.Errorf("delta sendmsg=%d", d[SysSendmsg])
	}
	if d[HITM] != 1 || d[CtxSwitch] != 0 {
		t.Errorf("delta hitm=%d cs=%d", d[HITM], d[CtxSwitch])
	}
	// Delta clamps when prev exceeds cur (after a Reset).
	p.Reset()
	if clamped := p.Snapshot().Delta(after); clamped != (Snapshot{}) {
		t.Error("delta did not clamp")
	}
}

// TestCounterLabels pins the one name table: every counter below the
// sentinel has a unique, non-empty "family.name" label, and the family
// listers partition the table in enum order.
func TestCounterLabels(t *testing.T) {
	seen := map[string]Counter{}
	var families []string
	for c := Counter(0); c < NumCounters; c++ {
		label := c.String()
		family, name, ok := strings.Cut(label, ".")
		if !ok || family == "" || name == "" || strings.Contains(name, ".") {
			t.Errorf("counter %d: label %q is not family.name", c, label)
		}
		if prev, dup := seen[label]; dup {
			t.Errorf("counters %d and %d share label %q", prev, c, label)
		}
		seen[label] = c
		if c.Name() != name {
			t.Errorf("%v.Name() = %q, want %q", c, c.Name(), name)
		}
		if len(families) == 0 || families[len(families)-1] != family {
			families = append(families, family)
		}
	}
	var all []Counter
	for _, f := range families {
		all = append(all, Family(f)...)
	}
	if len(all) != int(NumCounters) {
		t.Fatalf("families %v list %d counters, the table has %d", families, len(all), NumCounters)
	}
	for i, c := range all {
		if c != Counter(i) {
			t.Fatalf("families %v are not a partition in enum order: position %d holds %v", families, i, c)
		}
	}
	if got := Syscalls(); len(got) != 8 || got[0] != SysSendmsg || got[7] != SysClone {
		t.Errorf("Syscalls() = %v", got)
	}
	if Family("nope") != nil || NumCounters.String() == "" || NumCounters.Name() != "" {
		t.Error("unknown family / out-of-range counter mishandled")
	}
}

func TestSyscallAndOverheadNames(t *testing.T) {
	if SysFutex.Name() != "futex" || SysEpollPwait.Name() != "epoll_pwait" {
		t.Error("syscall names wrong")
	}
	if OverheadActiveExe.String() != "Active-Exe" || OverheadNetTx.String() != "Net_tx" {
		t.Error("overhead names wrong")
	}
	if Overhead(99).String() == "" {
		t.Error("out-of-range names empty")
	}
	if len(Overheads()) != int(numOverheads) {
		t.Error("enumerations wrong length")
	}
}

func TestProbedMutexContention(t *testing.T) {
	p := NewProbe()
	m := NewMutex(p)
	// Uncontended: no HITM.
	m.Lock()
	m.Unlock()
	if p.Snapshot()[HITM] != 0 {
		t.Fatalf("uncontended lock counted HITM: %d", p.Snapshot()[HITM])
	}
	// Force contention: goroutine holds the lock while we acquire.
	m.Lock()
	done := make(chan struct{})
	go func() {
		m.Lock()
		m.Unlock()
		close(done)
	}()
	time.Sleep(5 * time.Millisecond) // let the goroutine reach the contended path
	m.Unlock()
	<-done
	if p.Snapshot()[HITM] == 0 {
		t.Error("contended lock did not count HITM")
	}
	if p.Snapshot()[SysFutex] == 0 {
		t.Error("contended lock did not count futex")
	}
}

func TestProbedCond(t *testing.T) {
	p := NewProbe()
	m := NewMutex(p)
	c := NewCond(m, p)
	ready := false
	done := make(chan struct{})
	go func() {
		m.Lock()
		for !ready {
			c.Wait()
		}
		m.Unlock()
		close(done)
	}()
	time.Sleep(2 * time.Millisecond)
	m.Lock()
	ready = true
	c.Signal()
	m.Unlock()
	<-done
	// One Wait + one Signal = at least 2 futex proxies; Wait also counts a CS.
	if p.Snapshot()[SysFutex] < 2 {
		t.Errorf("futex=%d want ≥2", p.Snapshot()[SysFutex])
	}
	if p.Snapshot()[CtxSwitch] < 1 {
		t.Errorf("cs=%d want ≥1", p.Snapshot()[CtxSwitch])
	}
}

func TestProbeConcurrency(t *testing.T) {
	p := NewProbe()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				p.Add(SysFutex, 1)
				p.ObserveOverhead(OverheadNet, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if p.Snapshot()[SysFutex] != 8000 {
		t.Fatalf("futex=%d", p.Snapshot()[SysFutex])
	}
	if p.OverheadSnapshot(OverheadNet).Count != 8000 {
		t.Fatalf("overhead count=%d", p.OverheadSnapshot(OverheadNet).Count)
	}
}

func TestCondBroadcast(t *testing.T) {
	p := NewProbe()
	m := NewMutex(p)
	c := NewCond(m, p)
	const waiters = 4
	var wg sync.WaitGroup
	go_ := false
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Lock()
			for !go_ {
				c.Wait()
			}
			m.Unlock()
		}()
	}
	time.Sleep(5 * time.Millisecond)
	m.Lock()
	go_ = true
	c.Broadcast()
	m.Unlock()
	wg.Wait()
	if p.Snapshot()[CtxSwitch] < waiters {
		t.Errorf("cs=%d want ≥%d", p.Snapshot()[CtxSwitch], waiters)
	}
}
