package rpc

import (
	"io"

	"musuite/internal/telemetry"
	"musuite/internal/trace"
)

// writeQueue coalesces outgoing frames on one connection into batched
// writes — the userspace analog of writev/sendmsg gathering.  Senders append
// their encoded frame under a short lock; the sender that finds no flush in
// progress becomes the flusher and writes everything queued in one
// conn.Write (counted as a single SysSendmsg, matching the paper's
// syscalls-per-QPS accounting).  Frames that arrive while that write is in
// flight accumulate and go out in the flusher's next pass, so under
// contention N frames cost one syscall and one lock hand-off each instead
// of a serialized write apiece — the socket-lock futex/HITM source §VI
// identifies.  An uncontended sender still writes immediately; coalescing
// adds no idle latency.
type writeQueue struct {
	conn  io.Writer
	probe *telemetry.Probe
	// onError runs once, outside the lock, after the first write failure;
	// the owner uses it to tear the connection down so its reader unblocks.
	onError func(error)

	mu       *telemetry.Mutex
	buf      []byte // frames awaiting the next write
	scratch  []byte // frames currently being written (swapped with buf)
	flushing bool
	err      error
	notified bool
}

// maxIdleWriteBuf bounds how much scratch capacity an idle queue retains.
const maxIdleWriteBuf = 1 << 20

func newWriteQueue(conn io.Writer, probe *telemetry.Probe, onError func(error)) *writeQueue {
	return &writeQueue{conn: conn, probe: probe, onError: onError, mu: telemetry.NewMutex(probe)}
}

// enqueue appends one frame and flushes unless another sender already is.
// The frame is fully copied into the queue before enqueue returns, so the
// caller may immediately reuse method/payload storage.  A nil error means
// the frame was accepted — it reaches the socket on this or a concurrent
// flush, and a later write failure surfaces through onError, not here.
func (q *writeQueue) enqueue(kind byte, id uint64, sc trace.SpanContext, method string, payload []byte) error {
	q.mu.Lock()
	if q.err != nil {
		err := q.err
		q.mu.Unlock()
		return err
	}
	b, err := appendFrame(q.buf, kind, id, sc, method, payload)
	if err != nil {
		q.mu.Unlock()
		return err
	}
	q.buf = b
	if q.flushing {
		q.mu.Unlock()
		return nil
	}
	q.flushing = true
	for q.err == nil && len(q.buf) > 0 {
		q.buf, q.scratch = q.scratch[:0], q.buf
		q.mu.Unlock()
		// Counted before the write so the proxy is visible no later than
		// any reply the write carries.
		q.probe.Add(telemetry.SysSendmsg, 1)
		start := q.probe.Start()
		_, werr := q.conn.Write(q.scratch)
		q.probe.ObserveSince(telemetry.OverheadNetTx, start)
		q.mu.Lock()
		if werr != nil && q.err == nil {
			q.err = werr
		}
	}
	q.flushing = false
	if cap(q.scratch) > maxIdleWriteBuf {
		q.scratch = nil
	}
	var notify error
	if q.err != nil && !q.notified {
		q.notified = true
		notify = q.err
	}
	q.mu.Unlock()
	if notify != nil && q.onError != nil {
		q.onError(notify)
	}
	return nil
}
