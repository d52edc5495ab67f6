package telemetry

import "sync"

// Mutex is a mutual-exclusion lock that feeds the probe: a contended
// acquisition (lock already held) counts one HITM proxy event and one futex
// proxy call, matching how pthread mutexes fall back to futex(2) only under
// contention and how cross-core lock handoffs raise HITM events.
type Mutex struct {
	mu    sync.Mutex
	probe *Probe
}

// NewMutex returns a probed mutex. probe may be nil.
func NewMutex(probe *Probe) *Mutex {
	return &Mutex{probe: probe}
}

// Lock acquires the lock, recording contention if it must wait.
func (m *Mutex) Lock() {
	if m.mu.TryLock() {
		return
	}
	m.probe.Add(HITM, 1)
	m.probe.Add(SysFutex, 1)
	m.probe.Add(CtxSwitch, 1)
	m.mu.Lock()
}

// Unlock releases the lock.
func (m *Mutex) Unlock() { m.mu.Unlock() }

// Cond is a condition variable that feeds the probe: every Wait counts a
// futex call plus a context switch (the thread parks), every Signal or
// Broadcast counts a futex call (FUTEX_WAKE), and every Wait *return* counts
// a HITM proxy — the woken thread re-acquires the associated mutex, the
// cross-thread lock handoff that raises hit-Modified coherence events on
// real multicore hardware (the paper: "various threads are woken up when a
// futex returns, and they all contend ... to acquire a network socket
// lock", which is why its HITM counts exceed its CS counts).
type Cond struct {
	c     *sync.Cond
	probe *Probe
}

// NewCond returns a probed condition variable bound to a probed mutex.
func NewCond(m *Mutex, probe *Probe) *Cond {
	return &Cond{c: sync.NewCond(&m.mu), probe: probe}
}

// Wait blocks until signalled; the caller must hold the associated Mutex.
func (c *Cond) Wait() {
	c.probe.Add(SysFutex, 1)
	c.probe.Add(CtxSwitch, 1)
	c.c.Wait()
	c.probe.Add(HITM, 1)
}

// Signal wakes one waiter.
func (c *Cond) Signal() {
	c.probe.Add(SysFutex, 1)
	c.c.Signal()
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast() {
	c.probe.Add(SysFutex, 1)
	c.c.Broadcast()
}
