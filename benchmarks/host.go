package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// The host reference.  The sandbox is a shared 2-vCPU machine that runs
// slower for minutes at a time, so a time measured on it means little on its
// own.  Every time-valued metric is therefore reported relative to an in-run
// reference: the cost of one 64-byte round trip over a loopback TCP
// connection that uses only the standard library.  It exercises what the
// services spend most of their time in — read/write syscalls, the network
// poller and a goroutine wake-up on each side — and shares no code with them,
// so no change to the repository can move it.

const (
	// refHostUS is the ping-pong cost of the nominal host: normalised
	// figures read as "µs on a host whose ping-pong costs 8 µs".
	refHostUS = 8.0

	pingChunks    = 20
	pingChunkRTs  = 100
	pingMsgBytes  = 64
	sleepProbeN   = 200
	sleepProbeDur = 500 * time.Microsecond
)

// pingPong is one loopback connection with an echo goroutine on the far end.
type pingPong struct {
	conn net.Conn
	done chan struct{}
	msg  [pingMsgBytes]byte
	// chunk holds the per-chunk means of one reading; a field so measure
	// allocates nothing.
	chunk [pingChunks]float64
}

func newPingPong() (*pingPong, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("host reference: %w", err)
	}
	defer lis.Close()
	p := &pingPong{done: make(chan struct{})}
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	p.conn, err = net.Dial("tcp", lis.Addr().String())
	if err != nil {
		return nil, fmt.Errorf("host reference: %w", err)
	}
	far, ok := <-accepted
	if !ok {
		p.conn.Close()
		return nil, fmt.Errorf("host reference: accept failed")
	}
	for _, c := range []net.Conn{p.conn, far} {
		c.(*net.TCPConn).SetNoDelay(true)
	}
	go func() {
		defer close(p.done)
		defer far.Close()
		var buf [pingMsgBytes]byte
		for {
			if _, err := io.ReadFull(far, buf[:]); err != nil {
				return
			}
			if _, err := far.Write(buf[:]); err != nil {
				return
			}
		}
	}()
	return p, nil
}

// measure times pingChunks × pingChunkRTs round trips and returns the median
// chunk's mean round-trip time in µs.  The median over chunks keeps one
// preemption from setting the reading.
func (p *pingPong) measure() (float64, error) {
	for c := range p.chunk {
		start := time.Now()
		for i := 0; i < pingChunkRTs; i++ {
			if _, err := p.conn.Write(p.msg[:]); err != nil {
				return 0, err
			}
			if _, err := io.ReadFull(p.conn, p.msg[:]); err != nil {
				return 0, err
			}
		}
		p.chunk[c] = float64(time.Since(start).Nanoseconds()) / 1e3 / pingChunkRTs
	}
	slices.Sort(p.chunk[:])
	return (p.chunk[pingChunks/2-1] + p.chunk[pingChunks/2]) / 2, nil
}

func (p *pingPong) close() {
	p.conn.Close()
	<-p.done
}

// sleepOvershootUS is the median overshoot of time.Sleep(500µs): what an
// open-loop generator pacing itself with Sleep would charge every request.
func sleepOvershootUS() float64 {
	over := make([]float64, sleepProbeN)
	for i := range over {
		start := time.Now()
		time.Sleep(sleepProbeDur)
		over[i] = float64((time.Since(start) - sleepProbeDur).Nanoseconds()) / 1e3
	}
	return median(over)
}

// counters is one reading of the process-wide cost counters.
type counters struct {
	cpuUS       float64 // utime+stime
	vcsw, ivcsw int64   // voluntary / involuntary context switches
	syscalls    uint64  // read+write syscalls (syscr+syscw of /proc/self/io)
	mallocs     uint64
	allocBytes  uint64
	gcCycles    uint32
	gcPauseNS   uint64
	heapAllocMB float64
	takenAt     time.Time
}

// counterReader reads counters; it keeps /proc/self/io open so a reading is
// one pread.
type counterReader struct {
	io  *os.File
	buf [512]byte
}

func newCounterReader() (*counterReader, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return nil, fmt.Errorf("syscall counts need Linux /proc/self/io: %w", err)
	}
	return &counterReader{io: f}, nil
}

func (r *counterReader) close() { r.io.Close() }

func (r *counterReader) syscalls() (uint64, error) {
	n, err := r.io.ReadAt(r.buf[:], 0)
	if err != nil && err != io.EOF {
		return 0, fmt.Errorf("read /proc/self/io: %w", err)
	}
	var total uint64
	for _, key := range [][]byte{[]byte("syscr: "), []byte("syscw: ")} {
		i := bytes.Index(r.buf[:n], key)
		if i < 0 {
			return 0, fmt.Errorf("/proc/self/io has no %q", key)
		}
		rest := r.buf[i+len(key) : n]
		if j := bytes.IndexByte(rest, '\n'); j >= 0 {
			rest = rest[:j]
		}
		v, err := strconv.ParseUint(string(rest), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/self/io %s: %w", key, err)
		}
		total += v
	}
	return total, nil
}

func (r *counterReader) read() (counters, error) {
	var c counters
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return c, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	c.cpuUS = tv(ru.Utime) + tv(ru.Stime)
	c.vcsw, c.ivcsw = int64(ru.Nvcsw), int64(ru.Nivcsw)
	var err error
	if c.syscalls, err = r.syscalls(); err != nil {
		return c, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes = ms.Mallocs, ms.TotalAlloc
	c.gcCycles, c.gcPauseNS = ms.NumGC, ms.PauseTotalNs
	c.heapAllocMB = float64(ms.HeapAlloc) / (1 << 20)
	c.takenAt = time.Now()
	return c, nil
}

// costs accumulates the differences between pairs of counter readings.
type costs struct {
	cpuUS               float64
	vcsw, ivcsw         float64
	syscalls            float64
	mallocs, allocBytes float64
	gcCycles, gcPauseUS float64
	elapsedS            float64
}

func (c *costs) add(before, after counters) {
	c.cpuUS += after.cpuUS - before.cpuUS
	c.vcsw += float64(after.vcsw - before.vcsw)
	c.ivcsw += float64(after.ivcsw - before.ivcsw)
	c.syscalls += float64(after.syscalls - before.syscalls)
	c.mallocs += float64(after.mallocs - before.mallocs)
	c.allocBytes += float64(after.allocBytes - before.allocBytes)
	c.gcCycles += float64(after.gcCycles - before.gcCycles)
	c.gcPauseUS += float64(after.gcPauseNS-before.gcPauseNS) / 1e3
	c.elapsedS += after.takenAt.Sub(before.takenAt).Seconds()
}
